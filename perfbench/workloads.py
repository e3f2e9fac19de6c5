"""The three benchmark workloads: their inputs, their items and their checks.

A workload is a list of items.  Each item is one user-level query: a
``run`` callable (the timed part, which calls into mlvkit) and a ``check``
callable that receives the output of ``run`` and returns ``None`` when the
output is right or a one-line reason when it is wrong.  One pass over the
list is a round; a run repeats whole rounds.

The checks never compare with output recorded from mlvkit.  They use
``tests/padic_oracle.py`` (root lifting over Z/p^N), a discriminant-square
test written here, closed forms from the theory, and laws any report must
obey.  An item whose output was checked once and then comes back
byte-identical in a later round passes without the full check again.

Only the program's public functions are called, always through their
module (``engine.mac_lane_chains``), so that the traced run sees each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, List, Optional

# the checkout root's src/ and tests/ are put on sys.path by worker.py
import corpus as test_corpus
import padic_oracle
from mlvkit import cli, engine, indval, parsing
from mlvkit.fields import QpField
from mlvkit.poly import Poly

RANDOM_QP_PER_CLASS = 4          # per (p, degree): 3 primes x 2 degrees
RANDOM_QP_COEFF = 6              # coefficients drawn from [-6, 6]
FCS_CONTRACT_SAMPLES = 20        # truncation-contract samples per FCS


class Item:
    __slots__ = ("name", "run", "check", "digest", "known_fault", "verified")

    def __init__(self, name: str, run: Callable[[], object],
                 check: Callable[[object], Optional[str]],
                 digest: Callable[[object], str], known_fault: bool = False):
        self.name = name
        self.run = run
        self.check = check
        self.digest = digest          # exact text of an output, for repeats
        self.known_fault = known_fault
        self.verified = None          # digest of the last output that passed


# ---------------------------------------------------------------------------
# Independent p-adic facts
# ---------------------------------------------------------------------------


def vp(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def quadratic_truth(p: int, b: Fraction, c: Fraction) -> List[tuple]:
    """Sorted (e, f) of the extensions of v_p to Q[x]/(x^2 + b x + c).

    Q_p(root) = Q_p(sqrt(D)) with D = b^2 - 4c: two branches when D is a
    square in Q_p, otherwise one branch, ramified when v_p(D) is odd (or,
    for p = 2, when the unit part of D is 3 mod 4) and unramified else.
    """
    D = b * b - 4 * c
    if D == 0:
        raise ValueError("repeated root")
    v = vp(D, p)
    u = D / Fraction(p) ** v
    unit = u.numerator * pow(u.denominator, -1, 8 if p == 2 else p)
    if p == 2:
        unit %= 8
        if v % 2 == 0 and unit == 1:
            return [(1, 1), (1, 1)]
        if v % 2 == 1 or unit % 4 == 3:
            return [(2, 1)]
        return [(1, 2)]
    if v % 2 == 0 and pow(unit % p, (p - 1) // 2, p) == 1:
        return [(1, 1), (1, 1)]
    if v % 2 == 1:
        return [(2, 1)]
    return [(1, 2)]


def qp_truth(p: int, coeffs: List[Fraction]) -> List[tuple]:
    """(e, f) multiset for a monic Q-irreducible g of degree 2 or 3,
    constant term first: the discriminant test for quadratics, the
    p-adic oracle of the test suite for integral cubics."""
    if len(coeffs) == 3:
        return quadratic_truth(p, coeffs[1], coeffs[0])
    return padic_oracle.padic_extensions(p, [int(c) for c in coeffs])


def honest_qp_report(d: dict, truth: List[tuple]) -> Optional[str]:
    """None unless the JSON report asserts something false about an
    extension of Q_p whose true (e, f) multiset is ``truth``.

    Q_p is defectless, so every certified d is 1 and every lower bound is
    at most 1; e and f never exceed their true values; the branch count
    and ``unibranched`` must match the truth whenever they are asserted.
    An honestly inconclusive report passes.
    """
    branches = d["branches"]
    uni = d.get("unibranched")
    if uni is not None and uni != (len(truth) == 1):
        return f"unibranched = {uni}, but Q_p has {len(truth)} extensions"
    if len(branches) > len(truth):
        return f"{len(branches)} branches, but Q_p has {len(truth)} extensions"
    for b in branches:
        if not any(b["e"] <= e and b["f"] <= f for e, f in truth):
            return f"branch (e, f) = ({b['e']}, {b['f']}) exceeds every extension in {truth}"
        dd = b["d"]
        if isinstance(dd, dict):
            if dd.get("lowerBound", 1) > 1:
                return f"defect lower bound {dd['lowerBound']} over defectless Q_p"
        elif dd != 1:
            return f"defect {dd} over defectless Q_p"
    if sum(b["e"] * b["f"] for b in branches) > d["n"]:
        return "sum e*f exceeds n"
    if len(branches) == len(truth) and all(
            not isinstance(b["d"], dict) for b in branches):
        mine = sorted((b["e"], b["f"]) for b in branches)
        if mine != sorted(truth):
            return f"(e, f) = {mine}, expected {sorted(truth)}"
    return None


def report_laws(d: dict) -> Optional[str]:
    """Laws every extension report obeys, whatever the field."""
    branches = d["branches"]
    if not branches:
        return "no branches"
    n = d["n"]
    s_ef = sum(b["e"] * b["f"] for b in branches)
    if s_ef > n:
        return f"sum e*f = {s_ef} > n = {n}"
    if all(not isinstance(b["d"], dict) for b in branches):
        s_efd = sum(b["e"] * b["f"] * b["d"] for b in branches)
        if s_efd != n:
            return f"sum e*f*d = {s_efd} != n = {n} with every d certified"
    if d.get("unibranched") is True and len(branches) != 1:
        return "unibranched with several branches"
    sc = d["sumCheck"]
    if sc["sumEF"] != s_ef:
        return "sumCheck.sumEF disagrees with the branches"
    return None


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _rational_root_free(coeffs: List[int]) -> bool:
    c0 = coeffs[0]
    if c0 == 0:
        return False
    for r in range(1, abs(c0) + 1):
        if abs(c0) % r:
            continue
        for s in (r, -r):
            if sum(c * s ** i for i, c in enumerate(coeffs + [1])) == 0:
                return False
    return True


def random_qp_inputs(seed: int, taken: set) -> List[tuple]:
    """Seeded monic integral quadratics and cubics over Qp(2), Qp(3), Qp(5)
    without a rational root (so irreducible over Q), none of them in
    ``taken``: (p, int coeffs, constant term first)."""
    rng = random.Random(0xC0DE + seed)
    out = []
    for p in (2, 3, 5):
        for deg in (2, 3):
            made = 0
            while made < RANDOM_QP_PER_CLASS:
                coeffs = [rng.randint(-RANDOM_QP_COEFF, RANDOM_QP_COEFF)
                          for _ in range(deg)] + [1]
                if (p, tuple(coeffs)) not in taken and _rational_root_free(coeffs[:-1]):
                    taken.add((p, tuple(coeffs)))
                    out.append((p, coeffs))
                    made += 1
    return out


def corpus_items(seed: int) -> List[Item]:
    items = []
    taken = set()
    for K, polys in test_corpus.corpus():
        for g in polys:
            items.append(_corpus_item(K, g, seed))
            if K.kind == "Qp":
                taken.add((K.p, tuple(g.coeffs)))
    fields = {p: QpField(p) for p in (2, 3, 5)}
    for p, coeffs in random_qp_inputs(seed, taken):
        K = fields[p]
        items.append(_corpus_item(K, Poly.from_ints(K, coeffs), seed))
    return items


def _corpus_item(K, g, seed: int) -> Item:
    def run():
        report = engine.mac_lane_chains(K, g)
        seq = engine.finite_complete_sequence(report)
        return report, seq, cli.report_to_dict(report)

    def check(out):
        report, seq, d = out
        why = report_laws(d)
        if why:
            return why
        if K.kind == "Qp" and g.degree <= 3 and all(
                c.denominator == 1 for c in g.coeffs):
            truth = padic_oracle.padic_extensions(K.p, [int(c) for c in g.coeffs])
            mine = sorted((b.e, b.f) for b in report.branches)
            if mine != truth:
                return f"(e, f) = {mine}, oracle says {truth}"
        b = report.branches[0]
        has_seq = not isinstance(seq, engine.NoSequence)
        expect = report.unibranched and b.status == engine.TERMINATED and b.d == 1
        if has_seq != expect:
            return f"FCS present = {has_seq}, expected {expect}"
        if has_seq:
            if seq[-1] != g:
                return "FCS does not end in g"
            return _truncation_contract(report, seq, seed)
        return None

    def digest(out):
        report, seq, d = out
        return json.dumps(d, sort_keys=True) + repr(seq)

    return Item(f"corpus {K.descriptor_str()} {g.to_str()}", run, check, digest)


def _truncation_contract(report, seq, seed: int) -> Optional[str]:
    """Every nonzero f has a q in the sequence, deg q <= max(deg f, 1),
    with nu_q(f) = nu(f): checked on a family drawn from the run's seed."""
    K = report.K
    nu = report.branches[0].chain.evaluate
    rng = random.Random(seed * 7919 + report.n)
    for _ in range(FCS_CONTRACT_SAMPLES):
        f = Poly(K, [K.from_int(rng.randrange(-9, 10))
                     for _ in range(rng.randrange(2, report.n + 4))])
        if f.is_zero():
            continue
        if not any(q.degree <= max(f.degree, 1) and indval.truncation_eval(nu, q, f) == nu(f)
                   for q in seq):
            return f"truncation contract fails on {f.to_str()}"
    return None


# ---------------------------------------------------------------------------
# perfect_closure
# ---------------------------------------------------------------------------

# (field, polynomial, q, budgets): the Artin-Schreier trajectory gammas are
# -1/q^(l+1); each ladder stops below the budget where one item takes
# seconds.
PERFECT_CLOSURE = [
    ("FpPerf(2,t)", "x^2+x+1/t", 2, range(1, 11)),
    ("FpPerf(2,t)", "x^4+x+1/t", 4, range(1, 7)),
    ("FpPerf(3,t)", "x^3-x-1/t", 3, range(1, 8)),
]


def perfect_closure_items(seed: int) -> List[Item]:
    items = []
    for desc, src, q, budgets in PERFECT_CLOSURE:
        K = parsing.parse_field(desc)
        g = parsing.parse_poly(src, K)
        seen = {}  # budget -> trajectory, to check the prefix law
        for b in budgets:
            items.append(_perfect_closure_item(K, g, q, b, seen))
    return items


def _perfect_closure_item(K, g, q: int, budget: int, seen: dict) -> Item:
    def run():
        report = engine.mac_lane_chains(K, g, max_limit_probes=budget)
        scan = engine.psi_m_scan(report, 0, 1, probe_budget=budget)
        return report, scan, engine.defect(report), engine.finite_complete_sequence(report)

    def check(out):
        report, scan, defect, seq = out
        if len(report.branches) != 1:
            return f"{len(report.branches)} branches for an Artin-Schreier defect extension"
        b = report.branches[0]
        traj = [(e["key"].to_str(), e["gamma"]) for e in b.trajectory]
        gammas = [gamma for _, gamma in traj]
        want = [Fraction(-1, q ** (l + 1)) for l in range(budget + 1)]
        if gammas != want:
            return (f"trajectory gammas {[str(x) for x in gammas]}, "
                    f"closed form {[str(x) for x in want]}")
        if scan.outcome != "UNBOUNDED_EVIDENCE" or [v for _, v in scan.evidence] != want[1:]:
            return f"psi scan {scan.outcome} does not carry the trajectory"
        prev = seen.get(budget - 1)
        if prev is not None and traj[:len(prev)] != prev:
            return f"trajectory at budget {budget} does not extend budget {budget - 1}"
        seen[budget] = traj
        if b.d is not None or not b.d_lower or b.d_lower < 2:
            return f"defect d = {b.d}, lower bound {b.d_lower}: expected only a lower bound >= 2"
        if any("d" in entry or entry.get("d_lower_bound", 0) < 2 for entry in defect):
            return "engine.defect asserts a defect value"
        if not isinstance(seq, engine.NoSequence):
            return "a finite complete sequence was returned for a defect branch"
        return None

    def digest(out):
        report, scan, defect, seq = out
        d = cli.report_to_dict(report)
        return json.dumps(d, sort_keys=True) + repr((scan, defect, seq))

    return Item(f"perfect_closure {K.descriptor_str()} {g.to_str()} b={budget}",
                run, check, digest)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def run_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_check(inner: Callable[[dict], Optional[str]]):
    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        try:
            d = json.loads(text)
        except ValueError:
            return "output is not JSON"
        return inner(d)
    return check


def _extend_qp(p: int, coeffs: List[Fraction]):
    truth = qp_truth(p, coeffs)

    def inner(d):
        return report_laws(d) or honest_qp_report(d, truth)
    return inner


def _extend_degree(n: int):
    def inner(d):
        return report_laws(d) or (None if d["n"] == n else f"n = {d['n']}, expected {n}")
    return inner


def _extend_single(e: int, f: int):
    """Schoenemann: g = phi^e + t*r with phi irreducible mod t and r a unit
    mod phi gives one branch with these e, f and d = 1."""
    def inner(d):
        why = report_laws(d)
        if why:
            return why
        got = [(b["e"], b["f"], b["d"]) for b in d["branches"]]
        if got != [(e, f, 1)] or d.get("unibranched") is not True:
            return f"branches {got}, expected [({e}, {f}, 1)]"
        return None
    return inner


def _extend_defect(q: int):
    def inner(d):
        why = report_laws(d)
        if why:
            return why
        b = d["branches"][0]
        if len(d["branches"]) != 1 or not isinstance(b["d"], dict) or b["d"]["lowerBound"] < 2:
            return "expected one branch with only a defect lower bound >= 2"
        got = [t["gamma"] for t in b["trajectory"]]
        want = [str(Fraction(-1, q ** (l + 1))) for l in range(len(got))]
        return None if got == want else f"trajectory {got}, closed form {want}"
    return inner


def _tame(verdict: str, gr_perfect: bool, witness_kind: str):
    def inner(d):
        if d["overall"] != verdict or d["grPerfect"] is not gr_perfect:
            return f"tame verdict {d['overall']}/{d['grPerfect']}"
        w = d.get("witness")
        if (w["kind"] if w else None) != witness_kind:
            return f"witness {w}"
        if witness_kind == "GR_IMPERFECT" and w["witness"]["kind"] != "VALUE_WITNESS":
            return "gr(K) witness is not a value witness"
        return None
    return inner


def _stable(value: int, l0: int):
    def inner(d):
        if d["outcome"] != "STABILIZED" or (d["stableValue"], d["l0"]) != (value, l0):
            return f"stable value {d.get('stableValue')} from l0 = {d.get('l0')}"
        return None
    return inner


def _kahler(kind: str, trivial: bool, annihilator: Optional[str]):
    def inner(d):
        got = (d["kind"], d["omegaTrivial"], d["annihilatorValue"])
        return None if got == (kind, trivial, annihilator) else f"kahler {got}"
    return inner


def _surjective(verdict: str, kind: Optional[str], value: Optional[str] = None):
    def inner(d):
        fs = d["frobeniusSurjective"]
        w = fs["witness"]
        got = (fs["verdict"], w and w["kind"])
        if got != (verdict, kind) or (value is not None and w["value"] != value):
            return f"Frobenius {fs}"
        return None
    return inner


def _mul(result: str):
    def inner(d):
        return None if d["mul"]["result"] == result else f"product {d['mul']['result']}"
    return inner


def _q(*xs) -> List[Fraction]:
    return [Fraction(x) for x in xs]


# The named fault: the roots 1/3 +- 2^20*sqrt(17) lie in Q_2, yet the engine
# reports one LIMIT_SUSPECTED branch with d >= 2 because its probe budget
# ran out before the two roots separated.
KNOWN_FAULT = "x^2 - 2/3*x + 1/9 - 17*2^40"


def cli_commands(seed: int) -> List[tuple]:
    """(argv, check, known_fault) for one round of the cli workload."""
    rng = random.Random(0xC11 + seed)
    sv = [str(rng.randrange(1000)) for _ in range(6)]
    ext = ["extend", "--json", "--field"]
    return [
        (ext + ["Qp(2)", "--poly", "(((x^2-2)^2-8)^2-128)^2-2^15"],
         _json_check(_extend_degree(16)), False),
        (ext + ["Qp(2)", "--poly", "((x^2-2)^2-8)^2-128"], _json_check(_extend_degree(8)), False),
        # x^3+x+1 is irreducible over GF(2) and stays so over GF(4), GF(9)
        # for x^3-x-1; x^2+x+1 stays irreducible over GF(8)
        (ext + ["Fq(4,t)", "--poly", "(x^3+x+1)^2+t*x"], _json_check(_extend_single(2, 3)), False),
        (ext + ["Fq(9,t)", "--poly", "(x^3+2*x+2)^2+t"], _json_check(_extend_single(2, 3)), False),
        (ext + ["Fq(8,t)", "--poly", "(x^2+x+1)^3+t"], _json_check(_extend_single(3, 2)), False),
        (ext + ["FpPerf(2,t)", "--poly", "x^2+x+1/t"], _json_check(_extend_defect(2)), False),
        (ext + ["Qp(2)", "--poly", KNOWN_FAULT],
         _json_check(_extend_qp(2, _q(Fraction(1, 9) - 17 * 2 ** 40, Fraction(-2, 3), 1))), True),
        # trial-division cliffs in the rational-root warning
        (ext + ["Qp(2)", "--poly", "x^3 - 2*3^13"],
         _json_check(_extend_qp(2, _q(-2 * 3 ** 13, 0, 0, 1))), False),
        (ext + ["Qp(2)", "--poly", "x^2 - 17*2^18"],
         _json_check(_extend_qp(2, _q(-17 * 2 ** 18, 0, 1))), False),
        (ext + ["Qp(2)", "--poly", "x^2-2"], _json_check(_extend_qp(2, _q(-2, 0, 1))), False),
        (ext + ["Qp(2)", "--poly", "x^2+x+1"], _json_check(_extend_qp(2, _q(1, 1, 1))), False),
        (ext + ["Qp(3)", "--poly", "x^2+1"], _json_check(_extend_qp(3, _q(1, 0, 1))), False),
        (ext + ["Qp(5)", "--poly", "x^2+1"], _json_check(_extend_qp(5, _q(1, 0, 1))), False),
        (["tame", "--json", "--field", "Qp(2)", "--suite", "x^2-2;x^2+x+1"],
         _json_check(_tame("NOT_TAME", False, "GR_IMPERFECT")), False),
        (["tame", "--json", "--field", "Fq(2,t)", "--suite", "x^3+t;x^2+x+t"],
         _json_check(_tame("NOT_TAME", False, "GR_IMPERFECT")), False),
        (["tame", "--json", "--field", "FpPerf(2,t)", "--suite", "x^3+t;x^2+x+1/t"],
         _json_check(_tame("NOT_TAME", True, "FCS_FAILURE")), False),
        (["tame", "--json", "--field", "FpPerf(3,t)", "--suite", "x^2-t;x^4+t"],
         _json_check(_tame("TAME_EVIDENCE", True, None)), False),
        (["stable-value", "--json", "--p", "2", "--expr", "S", "--seed", sv[0]],
         _json_check(_stable(1, 1)), False),
        (["stable-value", "--json", "--p", "2", "--expr", "S - (c1*T + c2*T^2)", "--seed", sv[1]],
         _json_check(_stable(3, 3)), False),
        (["stable-value", "--json", "--p", "2", "--expr", "1/T", "--seed", sv[2]],
         _json_check(_stable(-1, 1)), False),
        (["stable-value", "--json", "--p", "3", "--expr", "S", "--seed", sv[3]],
         _json_check(_stable(1, 1)), False),
        (["stable-value", "--json", "--p", "3", "--expr", "S - (c1*T + c2*T^2)", "--seed", sv[4]],
         _json_check(_stable(3, 3)), False),
        (["stable-value", "--json", "--p", "3", "--expr", "1/T", "--seed", sv[5]],
         _json_check(_stable(-1, 1)), False),
        # v(g'(eta)) = v(2*sqrt 2) = 3/2; v(2*eta + 1) = 0 for a cube root of 1
        (["kahler", "--json", "--field", "Qp(2)", "--poly", "x^2-2"],
         _json_check(_kahler("PURELY_RAMIFIED", False, "3/2")), False),
        (["kahler", "--json", "--field", "Qp(2)", "--poly", "x^2+x+1"],
         _json_check(_kahler("PURELY_INERTIAL", True, "0")), False),
        (["kahler", "--json", "--field", "FpPerf(3,t)", "--poly", "x^2-t"],
         _json_check(_kahler("PURELY_RAMIFIED", True, None)), False),
        (["graded", "--json", "--field", "Qp(2)", "--surjective"],
         _json_check(_surjective("NO", "VALUE_WITNESS")), False),
        (["graded", "--json", "--field", "Qp(3)", "--surjective"],
         _json_check(_surjective("NO", "VALUE_WITNESS")), False),
        (["graded", "--json", "--field", "Fq(4,t)", "--surjective"],
         _json_check(_surjective("NO", "VALUE_WITNESS")), False),
        (["graded", "--json", "--field", "FpPerf(2,t)", "--surjective"],
         _json_check(_surjective("YES", None)), False),
        (["graded", "--json", "--field", "FpPerf(3,t)", "--surjective"],
         _json_check(_surjective("YES", None)), False),
        (["graded", "--json", "--field", "FpC(2,c,t)", "--surjective"],
         _json_check(_surjective("NO", "RESIDUE_WITNESS", "c")), False),
        (["graded", "--json", "--field", "FpC(3,c,t)", "--surjective"],
         _json_check(_surjective("NO", "RESIDUE_WITNESS", "c")), False),
        # epsilon(1) = 3, epsilon(2) = 18: T*T = 3*3/18 T^2 = 1/2 T^2 = 2*T^2 mod 3
        (["graded", "--json", "--field", "Qp(3)", "--mul", "T^1", "T^1", "--choice", "1=3,2=18"],
         _json_check(_mul("2*T^2")), False),
        (["graded", "--json", "--field", "FpPerf(3,t)", "--mul", "2*T^(1/3) + T^2", "T^(1/3)"],
         _json_check(_mul("2*T^(2/3) + T^(7/3)")), False),
    ]


def cli_items(seed: int) -> List[Item]:
    items = []
    for argv, check, known_fault in cli_commands(seed):
        items.append(Item("cli " + " ".join(argv), (lambda a=argv: run_cli(a)),
                          check, repr, known_fault))
    return items


WORKLOADS = {
    "corpus": corpus_items,
    "perfect_closure": perfect_closure_items,
    "cli": cli_items,
}
