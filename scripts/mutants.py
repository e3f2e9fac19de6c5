#!/usr/bin/env python3
"""A register of planted faults, each of which named tests must catch.

Each entry plants one fault: in ``file`` (relative to the repository
root) the exact ``old`` text, which must occur exactly once, becomes
``new``.  The script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory and first runs the union of the named tests
there unchanged: they must pass, or no fault can be judged.  Then, for
each entry, it plants the fault in the copy, runs the entry's tests
against it with pytest, and restores the file.

* caught: pytest reports a failing test;
* survived: every named test passes with the fault planted;
* stale: the old text is missing or not unique, or pytest cannot run the
  named tests (a test id that no longer exists);
* timed out: the tests were still running at the deadline, DEADLINE_S
  after the start of the script; an entry reached after the deadline is
  reported timed out without a run.  A stale entry is reported, never
  skipped: a refactor that moves the code moves its entries too.

Run from the root of a checkout:

    python3 scripts/mutants.py

The exit code is 0 when every fault is caught, 1 otherwise.
Stdlib only; the tests need pytest and hypothesis.  Hypothesis runs with
a fixed seed, so a result does not change between runs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# one deadline for every run, under the 10-minute timeout of the CI step,
# so that a hung entry is reported by name
DEADLINE_S = 480


class Fault(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: List[str]


CANONICAL = "tests/test_canonical_data.py::"
PROBE_FACTS = "tests/test_probe_facts.py::test_probe_facts_over_every_exploration"
SIDES = "tests/test_probe_facts.py::test_side_reductions_on_ramified_and_long_sides"
ONE_TERM_SHIFT = "tests/test_probe_facts.py::test_one_term_shift_equals_the_horner_loop"
FACTOR_BY_TRIAL = "tests/test_ffield.py::test_is_irreducible_equals_trial_division"

FAULTS = [
    Fault("rf-eq-compares-num-only", "src/mlvkit/ratfunc.py",
          "            return self.num == other.num and self.den == other.den\n",
          "            return self.num == other.num\n",
          [CANONICAL + "test_eq_tells_rational_functions_with_one_numerator_apart"]),
    Fault("rf-mul-with-a-polynomial-skips-make", "src/mlvkit/ratfunc.py",
          "        if a.den == den1 and b.den == den1:\n"
          "            return RF(fpoly.mul(B, a.num, b.num), den1)\n",
          "        if a.den == den1 or b.den == den1:\n"
          "            return RF(fpoly.mul(B, a.num, b.num), fpoly.mul(B, a.den, b.den))\n",
          [CANONICAL + "test_products_with_a_polynomial_are_reduced"]),
    Fault("accepts-checks-the-shape-only", "src/mlvkit/fields.py",
          "    return (coeffs_ok and fpoly.norm(B, a.num) == a.num"
          " and fpoly.norm(B, a.den) == a.den\n"
          "            and R.make(a.num, a.den) == a)\n",
          "    return coeffs_ok\n",
          [CANONICAL + "test_tadic_fields_refuse_data_that_is_not_canonical"]),
    Fault("polygon-nu-without-k1-gamma", "src/mlvkit/engine.py",
          "ratio(v1 * k2 - v2 * k1, den)",
          "ratio(v1 * (k2 - k1), den)",
          ["tests/test_engine.py::test_probes_match_the_fraction_hull"]),
    Fault("gcd-early-exit-on-a-zero-argument", "src/mlvkit/fpoly.py",
          "    if len(f) == 1 or len(g) == 1:\n",
          "    if len(f) <= 1 or len(g) <= 1:\n",
          ["tests/test_probe_facts.py::test_gcd_with_a_nonzero_constant_is_one_at_once"]),
    # a depth-zero probe moves its centre by -lift(r)*U(gamma)
    Fault("linear-key-lifted-with-unit-one", "src/mlvkit/engine.py",
          "delta = K.neg(K.term(r, node.gamma))",
          "delta = K.neg(K.lift(r))",
          [PROBE_FACTS]),
    Fault("shifted-values-read-from-the-unshifted-expansion", "src/mlvkit/engine.py",
          "K.valuate(c.coeffs[0]) for k, c in enumerate(exp) if c.coeffs}",
          "K.valuate(c.coeffs[0]) for k, c in enumerate(node.expansion(g)) if c.coeffs}",
          [PROBE_FACTS]),
    Fault("moved-centre-sign-flipped", "src/mlvkit/engine.py",
          "return K.add(node.center, delta), [Poly.const",
          "return K.sub(node.center, delta), [Poly.const",
          [PROBE_FACTS]),
    Fault("moved-centre-admits-a-value-not-increased", "src/mlvkit/engine.py",
          "            if gamma <= floor:\n",
          "            if gamma < floor:\n",
          [PROBE_FACTS]),
    # one polygon reader for both kinds of key
    Fault("lifted-key-floor-read-as-node-gamma", "src/mlvkit/engine.py",
          "            floor = node.evaluate(key)\n",
          "            floor = node.gamma\n",
          [SIDES]),
    Fault("infinity-pair-consumes-a-hull-edge", "src/mlvkit/engine.py",
          "    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):\n",
          "    for (k1, v1), (k2, v2) in zip(hull[len(out):], hull[len(out) + 1:]):\n",
          [SIDES]),
    # every node, entry nodes included, is seeded by the one reader
    Fault("entry-node-seeded-with-another-edges-side", "src/mlvkit/engine.py",
          "            node.seed_side(g, exp, side, g_value)\n",
          "            node.seed_side(g, exp, _probes(pts)[-1][2], g_value)\n",
          [PROBE_FACTS]),
    Fault("seeded-value-returned-for-any-input", "src/mlvkit/indval.py",
          "        if side is not None and side[0] is f:\n            return side[3]\n",
          "        if side is not None:\n            return side[3]\n",
          [PROBE_FACTS]),
    Fault("least-grade-keeps-the-first-k-of-a-tie", "src/mlvkit/indval.py",
          "        elif v == best:\n            ks.append(k)\n",
          "        elif v == best:\n            pass\n",
          [PROBE_FACTS]),
    # a child reads g's graded reduction off its polygon side, at any depth
    Fault("side-i0-not-reduced-mod-e", "src/mlvkit/indval.py",
          "i0 = effective[0][0] % e",
          "i0 = effective[0][0]",
          [PROBE_FACTS]),
    Fault("side-read-as-at-depth-zero", "src/mlvkit/indval.py",
          "effective = [(k, *self._coef(cc[k])) for k in ks]",
          "effective = [(k, *self.K.initial(cc[k][0])) for k in ks]",
          [SIDES]),
    Fault("side-coefficient-twisted-by-its-grade", "src/mlvkit/indval.py",
          "effective = [(k, *self._coef(cc[k])) for k in ks]",
          "effective = [(k, self._coef(cc[k])[0], best) for k in ks]",
          [PROBE_FACTS]),
    # the one-pass shift over the perfect closure
    Fault("one-term-power-coefficient-not-raised-to-j", "src/mlvkit/fields.py",
          "powers = [((j * e, pow(c, j, p)),) for j in range(n)]",
          "powers = [((j * e, c),) for j in range(n)]",
          [ONE_TERM_SHIFT]),
    Fault("pass-through-taken-although-a-higher-coefficient-contributes",
          "src/mlvkit/fields.py",
          "            if not d:\n                out.append(f[i])\n",
          "            if len(d) <= 1:\n                out.append(f[i])\n",
          [ONE_TERM_SHIFT]),
    Fault("scan-evidence-includes-the-entry-node", "src/mlvkit/engine.py",
          "b.trajectory[1:probe_budget + 1]",
          "b.trajectory[:probe_budget]",
          ["tests/test_acceptance.py::test_criterion_2_defect_trajectory"]),
    # (y^2 + y + 1)^2 over GF(2) has no root and would pass as irreducible
    Fault("rootless-quartic-taken-as-irreducible", "src/mlvkit/ffield.py",
          "    if scanned and fpoly.deg(f) <= 3:\n",
          "    if scanned and fpoly.deg(f) <= 4:\n",
          [FACTOR_BY_TRIAL + "[GF(2)-8]"]),
    Fault("root-sign-flipped-in-its-linear-factor", "src/mlvkit/ffield.py",
          "result.append((((-r) % p, 1), mult))",
          "result.append(((r, 1), mult))",
          [FACTOR_BY_TRIAL + "[GF(3)-5]"]),
    Fault("root-multiplicity-counted-once", "src/mlvkit/ffield.py",
          "            while rem == 0:\n",
          "            if rem == 0:\n",
          [FACTOR_BY_TRIAL + "[GF(2)-8]"]),
    Fault("p-adic-order-counts-each-pass-as-one", "src/mlvkit/values.py",
          "        k += e\n",
          "        k += 1\n",
          ["tests/test_values.py::test_split_p_equals_one_division_at_a_time"]),
    Fault("exact-ratio-left-a-fraction", "src/mlvkit/values.py",
          "    return num // den if num % den == 0 else Q(num, den)\n",
          "    return Q(num, den)\n",
          ["tests/test_values.py::test_ratio_is_an_int_exactly_when_den_divides_num"]),
    Fault("valuate-reads-the-residue", "src/mlvkit/fields.py",
          "else self.initial(a)[1]\n",
          "else self.initial(a)[0]\n",
          ["tests/test_fields.py::test_valuate_examples"]),
    Fault("monic-skips-any-unit-leading-coefficient", "src/mlvkit/fpoly.py",
          "    if not f or F.is_one(f[-1]):\n",
          "    if not f or not F.is_zero(f[-1]):\n",
          ["tests/test_fast_paths.py::test_a_monic_input_is_not_rescaled"]),
    Fault("scan-without-probes-claims-evidence", "src/mlvkit/engine.py",
          '"UNBOUNDED_EVIDENCE" if evidence else "NO_PROBES"',
          '"UNBOUNDED_EVIDENCE"',
          ["tests/test_engine.py::test_a_scan_with_no_probe_claims_no_evidence"]),
    Fault("hull-generator-keeps-its-p-part", "src/mlvkit/values.py",
          "            g = Q(_strip_p(g.numerator, hull), _strip_p(g.denominator, hull))\n",
          "            pass\n",
          ["tests/test_import.py::test_value_group_normalizes_compares_and_hashes"]),
    Fault("lone-stall-keeps-no-defect-bound", "src/mlvkit/engine.py",
          "            b.d_lower = max(2, ratio)\n",
          "            pass\n",
          ["tests/test_engine.py::test_artin_schreier_defect"]),
    Fault("induced-value-without-its-stability-check", "src/mlvkit/engine.py",
          "        if v1 == v2:\n",
          "        if True:\n",
          ["tests/test_engine.py::test_induced_value_matches_padic_roots"]),
    Fault("residue-always-perfect", "src/mlvkit/fields.py",
          "        if self.residue_field.order is not None:\n",
          "        if True:\n",
          ["tests/test_fields.py::test_residue_perfect"]),
    Fault("clone-shares-the-override-table", "src/mlvkit/fields.py",
          "        other.choice_overrides = {}\n",
          "        other.choice_overrides = self.choice_overrides\n",
          ["tests/test_fields.py::test_with_choice_overrides_copies_the_descriptor"]),
    Fault("truncation-base-not-checked-for-monic", "src/mlvkit/indval.py",
          "    if not q.is_monic():\n        raise NonMonicBase(\"truncation base must be monic\")\n",
          "",
          ["tests/test_indval.py::test_truncation_base_is_checked_before_its_input"]),
]


def run_tests(copy: Path, tests: List[str], deadline: float) -> int:
    """pytest's exit code for the tests in the copy (1: a test failed), or
    -1 when the run does not end by the deadline (a time.monotonic())."""
    left = deadline - time.monotonic()
    if left <= 0:
        return -1
    # no bytecode cache: a planted file can keep the size and mtime second
    # of the original, and a cached .pyc would then hide the fault
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=left).returncode
    except subprocess.TimeoutExpired:
        return -1


def judge(copy: Path, fault: Fault, deadline: float) -> str:
    path = copy / fault.file
    text = path.read_text()
    if text.count(fault.old) != 1:
        return f"stale: old text occurs {text.count(fault.old)} times in {fault.file}"
    path.write_text(text.replace(fault.old, fault.new))
    try:
        code = run_tests(copy, fault.tests, deadline)
    finally:
        path.write_text(text)
    if code == 1:
        return "caught"
    if code == 0:
        return "survived"
    if code == -1:
        return f"timed out ({DEADLINE_S} s deadline)"
    return f"stale: pytest exit code {code}"


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = sorted({t for f in FAULTS for t in f.tests})
        code = run_tests(copy, tests, deadline)
        if code != 0:
            # 1: a named test fails; 4 or 5: a named test id is stale
            print(f"the named tests do not pass without a fault (pytest exit code {code})")
            return 1
        bad = 0
        for fault in FAULTS:
            verdict = judge(copy, fault, deadline)
            bad += verdict != "caught"
            print(f"{verdict:9s} {fault.name}" if verdict in ("caught", "survived")
                  else f"{fault.name}: {verdict}")
    print(f"{len(FAULTS) - bad} of {len(FAULTS)} faults caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
