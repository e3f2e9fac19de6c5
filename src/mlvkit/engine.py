"""Extension computation: all extensions of v to K[x]/(g) as chain branches.

The exploration is the effective MacLane construction: start from the
depth-zero valuations given by the Newton polygon of g in x, then
repeatedly factor the residual polynomial of g, lift each irreducible
factor (other than y) to a new key polynomial, and augment along every
principal slope of the polygon of g with respect to that key.  At a
depth-zero stage w_(a,gamma) with e = 1 a linear factor y + r moves the
centre instead: its key is x - a' with a' = a - lift(r)*U(gamma), and the
augmentation [w_(a,gamma); x - a', gamma'] is w_(a',gamma') (Vaquie,
Trans. AMS 359, 2007; Nart, Pacific J. Math. 311, 2021).  Every node the
exploration steps, entry nodes included, is read off g's Newton polygon
(in x, or in a key of either kind) by one reader, ``_probes``, and learns
g's expansion, nu(g) and its residual polynomial from one seed: the side
of that polygon that made it (the theorem of the residual polynomial,
Guardia-Montes-Nart, Trans. AMS 364, 2012).  A branch
terminates when g itself becomes a key polynomial and can be assigned
the value infinity.  A branch in flight is one ``_State`` record, and
one function, ``_stop``, decides whether it stops and why, trying three
reasons in this order: TERMINATED (g is the node's key; a separated
key is certified from its step's own factorization, which has already
proved its residual polynomial irreducible);
SEPARATED_STALL (its last two refinements were separated: a single
multiplicity-one residual factor, so e and f are final and only the
approximation improves); PROBE_BUDGET (it has made ``max_limit_probes``
refinements at a stagnant key degree).  The reason is kept as
``Branch.stop``.  A branch stopped for either of the last two is
LIMIT_SUSPECTED: it may be a genuine limit (defect, or branch separation
over the henselization) or a budget that ran out, so its invariants are
reported as bounds.  One step function, ``_step``, builds the children
of a node; a scan (``psi_m_scan``) reads a stalled branch's recorded
probes and never steps.

Defects are resolved as follows: terminated branches have
d = deg(factor)/(e*f); when the sum of e*f over all branches reaches
deg(g) the fundamental equality forces d = 1 everywhere; a single
stalled branch gets the lower bound max(2, n/(e*f)), or 2 when e*f does
not divide n = deg(g); anything else keeps the trivial lower bound 1.

A report with some d unknown, or with every d known and n != sum e*f*d,
is checked for a repeated factor (``_check_squarefree``), which raises
NOT_SQUAREFREE; for a squarefree g a known sum other than n is an
internal error.
"""

from __future__ import annotations

from collections import deque
from math import gcd, isqrt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import fpoly
from .errors import (BadBound, DepthExceeded, IndexOutOfRange, InvariantViolated,
                     NotMonic, NotSquarefree, ResidueUnsupported, ZeroInput)
from .ffield import factor_monic
from .fields import TadicField, ValuedField
from .indval import InductiveValuation
from .parsing import MAX_EXPONENT
from .poly import Poly, phi_expansion
from .values import INFINITY, Frozen, Value, ratio, value_str

TERMINATED = "TERMINATED"
LIMIT_SUSPECTED = "LIMIT_SUSPECTED"
# the reasons a non-terminated branch stops; both make it LIMIT_SUSPECTED
SEPARATED_STALL = "SEPARATED_STALL"
PROBE_BUDGET = "PROBE_BUDGET"


class _Unstable:
    def __repr__(self):
        return "UNSTABLE"


UNSTABLE = _Unstable()


class Branch:
    """One extension of v: its chain, why it stopped, e, f and the defect
    d, or None with a lower bound d_lower.  ``_assemble`` sets d or
    d_lower of a stalled branch once all branches are known."""

    __slots__ = ("chain", "stop", "e", "f", "d", "d_lower", "trajectory", "prev_chain")

    def __init__(self, chain: InductiveValuation, stop: str, e: int, f: int,
                 d: Optional[int], d_lower: Optional[int], trajectory: List[dict],
                 prev_chain: Optional[InductiveValuation]):
        self.chain = chain
        self.stop = stop  # TERMINATED | SEPARATED_STALL | PROBE_BUDGET, from _stop
        self.e = e
        self.f = f
        self.d = d
        self.d_lower = d_lower
        self.trajectory = trajectory  # probes at the stagnant degree (incl. entry node)
        self.prev_chain = prev_chain

    @property
    def status(self) -> str:
        return TERMINATED if self.stop == TERMINATED else LIMIT_SUSPECTED

    @property
    def key_polys(self) -> List[Poly]:
        return [st.phi for st in self.chain.stages()]


class ExtensionReport(NamedTuple):
    K: ValuedField
    g: Poly
    n: int
    branches: List[Branch]
    unibranched: bool
    warnings: List[str]
    bounds: Dict[str, int]

    @property
    def settled(self) -> bool:
        """Unibranched with a terminated branch: the one extension's e, f
        and d are then exact, not bounds."""
        return self.unibranched and self.branches[0].status == TERMINATED

    @property
    def sum_ef(self) -> int:
        return sum(b.e * b.f for b in self.branches)

    @property
    def sum_efd(self) -> Optional[int]:
        total = 0
        for b in self.branches:
            if b.d is None:
                return None
            total += b.e * b.f * b.d
        return total


class ScanResult(NamedTuple):
    degree: int
    # "EMPTY" | "MAX_ATTAINED" | "UNBOUNDED_EVIDENCE" | "NO_PROBES": a stalled
    # branch with no recorded probe (or a budget of 0) has no evidence
    outcome: str
    max_poly: Optional[Poly] = None
    max_value: Optional[Value] = None
    evidence: Tuple[Tuple[Poly, Value], ...] = ()


# ---------------------------------------------------------------------------
# Newton polygon helpers
# ---------------------------------------------------------------------------


def lower_hull(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    pts = sorted(points)
    hull: List[Tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _probes(points: Dict[int, Value]) -> List[Tuple[Value, Value, Optional[List[int]]]]:
    """The children of one key, read off the Newton polygon of the points
    (k, v(a_k)) of the nonzero coefficients: (INFINITY, INFINITY, None)
    first when there is no constant term (the key divides g), then
    (gamma, nu, side) for each lower-hull edge, gamma = -(slope),
    nu = v_k1 + k1*gamma read at the edge's left end (k1, v_k1), where the
    minimum min_k v(a_k) + k*gamma is attained, and side the k, in
    increasing order, of the points on the edge.  Over g's key-expansion,
    with points (k, mu(c_k)), the child [mu; key, gamma] values each c_k
    as mu does (deg c_k < deg key), so nu is nu(g) there, and the points
    on the side are g's coefficients of least grade, which ``seed_side``
    gives the child.

    The hull runs on ints: every value is scaled by L, the lcm of the
    denominators (1 when all values are integral), and gamma and nu are
    ints when they are exact."""
    finite = [(k, v.numerator, v.denominator)
              for k, v in sorted(points.items()) if v is not INFINITY]
    L = 1
    for _, _, den in finite:
        if den != 1:
            L = L * den // gcd(L, den)
    scaled = [(k, num * (L // den)) for k, num, den in finite]
    hull = lower_hull(scaled)
    out = [] if 0 in points else [(INFINITY, INFINITY, None)]
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        # gamma = (v1 - v2) / ((k2 - k1) L), nu = (v1 k2 - v2 k1) / ((k2 - k1) L)
        dk, dv = k2 - k1, v2 - v1
        den = dk * L
        # the side: the edge's vertices and the points on the line between
        side = [k for k, v in scaled if k1 <= k <= k2 and (v - v1) * dk == dv * (k - k1)]
        out.append((ratio(v1 - v2, den), ratio(v1 * k2 - v2 * k1, den), side))
    return out


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


def _moved_centre(node: InductiveValuation, g: Poly, r) -> Tuple[object, List[Poly]]:
    """The centre a' = a - lift(r)*U(gamma) of a depth-zero ``node``
    w_(a,gamma) with e = 1, whose key x - a' lifts the residual factor
    y + r (r != 0), so mu(x - a') = gamma, and the expansion of g at a':
    the node's expansion at a Taylor-shifted by the single term a' - a,
    ``K.term``."""
    K = node.K
    delta = K.neg(K.term(r, node.gamma))
    shifted = fpoly.taylor_shift(K, [c[0] for c in node.expansion(g)], delta)
    return K.add(node.center, delta), [Poly.const(K, c) for c in shifted]


def _y_poly(kappa) -> tuple:
    return (kappa.zero(), kappa.one())


class _State(NamedTuple):
    """A branch in flight: its last ``node``, the number ``sep`` of
    consecutive separated refinements that reached it, its probes
    ``traj`` at its key degree, and the ``parent`` it was refined from."""
    node: InductiveValuation
    sep: int
    traj: List[dict]
    parent: Optional[InductiveValuation]

    @classmethod
    def at(cls, node: InductiveValuation, g_value: Value,
           parent: Optional[InductiveValuation] = None, sep: int = 0,
           traj: Sequence[dict] = ()) -> "_State":
        """The state at ``node``, where g has the value ``g_value``,
        refined from ``parent`` (None for a depth-zero seed): a terminal
        node has no probes (and ``g_value`` is not read), a node at its
        parent's degree extends ``traj`` and keeps ``sep``, and any other
        node starts a new trajectory."""
        if node.is_terminal():
            return cls(node, 0, [], parent)
        entry = {"key": node.phi, "gamma": node.gamma, "g_value": g_value}
        if parent is not None and node.degree == parent.degree:
            return cls(node, sep, [*traj, entry], parent)
        return cls(node, 0, [entry], parent)


def _stop(state: _State, max_limit_probes: int) -> Optional[str]:
    """Why the branch at ``state`` stops (the reasons in the module
    docstring, tried in that order), or None when it goes on."""
    if state.node.is_terminal():
        return TERMINATED
    if state.sep >= 2:
        return SEPARATED_STALL
    if len(state.traj) > max_limit_probes:
        return PROBE_BUDGET
    return None


def _step(g: Poly, state: _State, factorizations: dict) -> List[_State]:
    """The child states of one exploration step below the non-terminal
    ``state.node``, whose value of g is therefore finite.

    A refinement is separated when the residual polynomial of g is one
    multiplicity-one factor and g is not yet a key: e and f are final.
    ``factorizations`` maps (kappa, H) to the factors of H over kappa;
    ``mac_lane_chains`` keeps it for one exploration, whose probes often
    meet the same residual polynomial again.  A separated node's
    factorization is [(monic(H), 1)], so factor_monic's distinct-degree
    pass has already proved monic(H) irreducible: ``is_key`` gets g's
    graded reduction and makes only the minimality checks, and the
    terminal augmentation takes monic(H) as its residual.  Any other
    proper factor gives a key: a linear one at a depth-zero node with
    e = 1 moves the centre (``_moved_centre``; mu(x - a') = gamma), with
    no key lift or ``augment``, and ``key_from_residual`` lifts the rest.
    One reader, ``_probes``, takes the children off the polygon of g's
    expansion in the key, keeping those with gamma above mu(key), and
    every non-terminal child gets one seed (``seed_side``): g, that
    expansion and the side that made it, as ``mac_lane_chains`` seeds
    the entry nodes.
    """
    node = state.node
    gr = node.graded_reduction(g)
    K, kappa = node.K, node.kappa
    factors = factorizations.get((kappa, gr.H))
    if factors is None:
        factors = factorizations[kappa, gr.H] = factor_monic(kappa, gr.H)
    proper = [(u, m) for u, m in factors if u != _y_poly(kappa)]
    separated = len(factors) == 1 and factors[0][1] == 1
    if separated and node.is_key(g, _gr=gr):
        return [_State.at(node.augment(g, INFINITY, _rbar=factors[0][0]), INFINITY, node)]
    sep = state.sep + 1 if separated else 0
    out = []
    for rbar, _mult in proper:
        moved = node.prev is None and node.e_rel == 1 and fpoly.deg(rbar) == 1
        if moved:
            # the coefficients are constants, valued by the field
            centre, exp = _moved_centre(node, g, rbar[0])
            pts = {k: K.valuate(c.coeffs[0]) for k, c in enumerate(exp) if c.coeffs}
            floor = node.gamma
        else:
            key = node.key_from_residual(rbar)
            exp = list(phi_expansion(g, key))
            pts = {k: node.evaluate(c) for k, c in enumerate(exp) if c.coeffs}
            floor = node.evaluate(key)
        for gamma, g_value, side in _probes(pts):
            if gamma <= floor:
                continue
            child = (InductiveValuation.depth_zero(K, centre, gamma) if moved
                     else node.augment(key, gamma, _rbar=rbar))
            if side is not None:
                child.seed_side(g, exp, side, g_value)
            out.append(_State.at(child, g_value, node, sep, state.traj))
    return out


def _irreducibility_warnings(K: ValuedField, g: Poly) -> List[str]:
    """Cheap reducibility evidence; irreducibility itself is caller-asserted."""
    warnings = []
    if g.degree >= 2 and K.is_zero(g[0]):
        warnings.append("constant term is zero: x divides g")
    if K.kind == "Qp" and 2 <= g.degree <= 3:
        # rational root test over Q, for integer roots only
        c0 = g[0]
        if c0 != 0 and c0.denominator == 1 and all(g[k].denominator == 1 for k in range(g.degree + 1)):
            roots = _integer_roots([g[k].numerator for k in range(g.degree + 1)])
            if roots:
                s = min(roots, key=lambda r: (abs(r), r < 0))
                warnings.append(f"rational root {s}: g is reducible over Q")
    return warnings


def _integer_roots(cs: List[int]) -> set:
    """Integer roots of an integer quadratic or cubic (coefficients low to
    high, nonzero constant term) in O(log |c0|) evaluations."""
    if len(cs) == 3:
        c, b, a = cs
        disc = b * b - 4 * a * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return set()
        s = isqrt(disc)
        return {(-b + t) // (2 * a) for t in (s, -s) if (-b + t) % (2 * a) == 0}

    def f(x):
        return ((cs[3] * x + cs[2]) * x + cs[1]) * x + cs[0]

    # every integer root divides c0; f is monotone between the critical
    # points (-b +- sqrt(b^2 - 3ac)) / 3a, each known here to within 4/3
    n0 = abs(cs[0])
    d, c, b, a = cs
    disc = b * b - 3 * a * c
    pieces, near = [(-n0, n0)], []
    if disc > 0:
        s = isqrt(disc)
        lo, hi = sorted(((-b + s) // (3 * a), (-b - s) // (3 * a)))
        pieces = [(-n0, lo - 3), (lo + 3, hi - 3), (hi + 3, n0)]
        near = [x for m in (lo, hi) for x in range(m - 2, m + 3) if -n0 <= x <= n0]
    roots = {x for x in near if f(x) == 0}
    for lo, hi in pieces:
        lo, hi = max(lo, -n0), min(hi, n0)
        if lo > hi:
            continue
        up = f(hi) >= f(lo)
        while lo < hi:
            mid = (lo + hi) // 2
            v = f(mid)
            if (v >= 0) if up else (v <= 0):
                hi = mid
            else:
                lo = mid + 1
        if f(lo) == 0:
            roots.add(lo)
    return roots


def mac_lane_chains(K: ValuedField, g: Poly, max_depth: int = 32,
                    max_limit_probes: int = 8) -> ExtensionReport:
    """All extensions of v to K[x]/(g), as branches of augmentation chains."""
    _check_bound("max_depth", max_depth)
    _check_bound("max_limit_probes", max_limit_probes, MAX_EXPONENT)
    if not g.is_monic():
        raise NotMonic("g must be monic")
    if g.degree < 1:
        raise NotMonic("g must be nonconstant")
    if K.residue_field.order is None:
        raise ResidueUnsupported(
            "branch exploration needs a finite residue field (Qp, Fq(t), FpPerf)")
    warnings = _irreducibility_warnings(K, g)
    bounds = {"max_depth": max_depth, "max_limit_probes": max_limit_probes}

    branches: List[Branch] = []
    factorizations: Dict[tuple, list] = {}
    # g's expansion at the centre 0 is its coefficients, valued by the field
    exp = [Poly.const(K, c) for c in g.coeffs]
    pts = {k: K.valuate(c) for k, c in enumerate(g.coeffs) if not K.is_zero(c)}
    work = deque()
    for gamma, g_value, side in _probes(pts):
        node = InductiveValuation.depth_zero(K, K.zero(), gamma)
        if side is not None:
            node.seed_side(g, exp, side, g_value)
        work.append(_State.at(node, g_value))
    while work:
        state = work.popleft()
        reason = _stop(state, max_limit_probes)
        if reason is not None:
            branches.append(_finish(state, reason))
        elif state.node.depth > max_depth:
            raise DepthExceeded(f"chain depth exceeded {max_depth}")
        else:
            work.extend(_step(g, state, factorizations))

    return _assemble(K, g, branches, warnings, bounds)


def _check_bound(name: str, value: int, cap: Optional[int] = None) -> None:
    if value < 0:
        raise BadBound(f"{name} must be >= 0, got {value}")
    if cap is not None and value > cap:
        raise BadBound(f"{name} = {value} exceeds {cap}")


def _finish(state: _State, reason: str) -> Branch:
    """The branch ending at ``state``, stopped for ``reason``: a
    TERMINATED one has its exact defect; any other keeps its probes and
    parent, its defect left to ``_assemble``."""
    node = state.node
    e = node.ramification_index()
    f = node.inertia_degree()
    d = None
    if reason == TERMINATED:
        if node.degree % (e * f) != 0:
            raise InvariantViolated(f"e*f = {e * f} does not divide the degree {node.degree}")
        d = node.degree // (e * f)
    return Branch(node, reason, e, f, d, None, state.traj, state.parent)


def _assemble(K, g, branches: List[Branch], warnings, bounds) -> ExtensionReport:
    # branches arrive in breadth-first exploration order, which is
    # deterministic for fixed (g, bounds)
    n = g.degree
    total_ef = sum(b.e * b.f for b in branches)
    stalled = [b for b in branches if b.status == LIMIT_SUSPECTED]
    if stalled:
        if total_ef == n:
            for b in stalled:
                b.d = 1
        elif len(branches) == 1:
            b = branches[0]
            ratio = n // (b.e * b.f) if n % (b.e * b.f) == 0 else 2
            b.d_lower = max(2, ratio)
        else:
            for b in stalled:
                b.d_lower = 1
    report = ExtensionReport(K, g, n, branches, len(branches) == 1, warnings, bounds)
    # a repeated factor ends its branch on a key of lower degree than the
    # factor, so n = sum e*f*d fails or some d stays unknown: only then is
    # gcd(g, g') worth computing
    total = report.sum_efd
    if total != n:
        _check_squarefree(K, g)
        if total is not None:
            raise InvariantViolated(f"sum e*f*d = {total} != n = {n} for a squarefree g")
    return report


def _check_squarefree(K: ValuedField, g: Poly) -> None:
    """Raise NotSquarefree, naming h, when g has a repeated factor.

    Over a perfect K (Qp, FpPerf) that is h = gcd(g, g') nonconstant; g' = 0
    makes g a p-th power.  B(t) is not perfect, and an irreducible g there
    may have g' = 0 (x^2 + t over F_2(t)), so h also takes the gcd with
    d/dt of g's coefficients: a monic irreducible factor dividing g, g' and
    dg/dt would have coefficients in B(t^p) and exponents divisible by p,
    so it would be a p-th power.  Hence h = 1 exactly when g is squarefree.
    """
    cc = g.coeffs
    h = fpoly.gcd_(K, cc, fpoly.deriv(K, cc))
    if isinstance(K, TadicField) and fpoly.deg(h) > 0:
        h = fpoly.gcd_(K, h, fpoly.norm(K, [K.derivative(c) for c in cc]))
    if fpoly.deg(h) > 0:
        factor = Poly(K, h)
        raise NotSquarefree(
            f"g = {g.to_str()} is not squarefree: every irreducible factor of "
            f"{factor.to_str()} divides it at least twice", factor)


# ---------------------------------------------------------------------------
# Reading a branch (scans and stability queries)
# ---------------------------------------------------------------------------


def induced_value(report: ExtensionReport, branch_index: int, f: Poly):
    """nu(f) = v(f(eta)) along a branch; UNSTABLE when the stalled prefix
    has not yet pinned the value down."""
    b = _branch(report, branch_index)
    if b.status == TERMINATED:
        return b.chain.evaluate(f)
    if b.prev_chain is not None:
        v1 = b.prev_chain.evaluate(f)
        v2 = b.chain.evaluate(f)
        if v1 == v2:
            return v2
    return UNSTABLE


def _branch(report: ExtensionReport, i: int) -> Branch:
    if not 0 <= i < len(report.branches):
        raise IndexOutOfRange(f"branch {i} of {len(report.branches)}")
    return report.branches[i]


def psi_m_scan(report: ExtensionReport, branch_index: int, m: int,
               probe_budget: int = 8) -> ScanResult:
    """Scan the key polynomials of degree m along a branch.

    Returns the chain's maximal-value degree-m key when the chain moved
    past degree m (or terminated there), and EMPTY when no degree-m key
    arises.  When the branch stalled at degree m, the evidence is the
    first ``probe_budget`` probes that the exploration recorded past the
    entry node: their keys and strictly increasing values, and NO_PROBES
    when there is none to give.  Why the stall stopped is the branch's
    ``stop``; more evidence takes an exploration with a larger
    ``max_limit_probes``.
    """
    if m < 1:
        raise ZeroInput("degree must be >= 1")
    _check_bound("probe_budget", probe_budget, MAX_EXPONENT)
    b = _branch(report, branch_index)
    stages = b.chain.stages()
    match = [st for st in stages if st.degree == m]
    if not match:
        return ScanResult(m, "EMPTY")
    st = match[-1]
    if b.status == LIMIT_SUSPECTED and st is stages[-1]:
        evidence = tuple((entry["key"], entry["gamma"])
                         for entry in b.trajectory[1:probe_budget + 1])
        return ScanResult(m, "UNBOUNDED_EVIDENCE" if evidence else "NO_PROBES",
                          evidence=evidence)
    return ScanResult(m, "MAX_ATTAINED", max_poly=st.phi,
                      max_value=induced_value(report, branch_index, st.phi))


class NoSequence(Frozen):
    """Why a report has no finite complete sequence.  It stands in for the
    sequence, so it is neither iterable nor sized."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        # "BRANCHED" | "DEFECT_SUSPECTED" | "UNRESOLVED" (a lone stalled branch
        # whose d = 1 is already forced by sum e*f = n)
        object.__setattr__(self, "reason", reason)


def finite_complete_sequence(report: ExtensionReport):
    """The finite complete sequence of key polynomials, when one exists.

    Exists iff the report is settled and its branch has defect one; the
    sequence is then the chain key of each occurring degree (ending in g
    itself).  It is complete by construction: the keys of a chain of
    ordinary augmentations form a complete set (MacLane, Trans. AMS 40,
    1936; Vaquie, Trans. AMS 359, 2007), and each key is minimal with an
    irreducible residual polynomial: ``key_from_residual`` lifts an
    irreducible factor from ``factor_monic``, g passed the minimality checks
    with the single irreducible factor of its step's residual polynomial,
    and ``augment`` takes a same-degree refinement phi' of mu only when
    mu(phi') = gamma, so that phi' keeps the residual of mu's key.
    """
    if not report.unibranched:
        return NoSequence("BRANCHED")
    b = report.branches[0]
    if b.d != 1:
        return NoSequence("DEFECT_SUSPECTED")
    if b.status != TERMINATED:
        # no defect, but the probe budget ran out before g became a key
        return NoSequence("UNRESOLVED")
    return b.key_polys


def defect(report: ExtensionReport) -> List[dict]:
    """Per-branch defect data: exact value or lower bound, plus the
    stagnation probes backing a limit suspicion.

    This restates each branch's ``d``, ``d_lower`` and trajectory, which
    ``cli.report_to_dict`` also emits.  It stays because the benchmark's
    ``perfect_closure`` check reads these dicts (its digest includes them),
    and folding them into the branch record waits for the next change to
    that benchmark."""
    out = []
    for i, b in enumerate(report.branches):
        entry: Dict[str, object] = {"branch": i, "status": b.status}
        if b.d is not None:
            entry["d"] = b.d
        else:
            entry["d_lower_bound"] = b.d_lower
            entry["limit_steps"] = [
                {"key": str(e["key"]), "gamma": value_str(e["gamma"])}
                for e in b.trajectory]
        out.append(entry)
    return out
