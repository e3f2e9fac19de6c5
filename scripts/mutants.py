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
          "_ratio(v1 * k2 - v2 * k1, den)",
          "_ratio(v1 * (k2 - k1), den)",
          ["tests/test_engine.py::test_polygon_gammas_match_the_fraction_hull"]),
    Fault("gcd-early-exit-on-a-zero-argument", "src/mlvkit/fpoly.py",
          "    if len(f) == 1 or len(g) == 1:\n",
          "    if len(f) <= 1 or len(g) <= 1:\n",
          ["tests/test_probe_facts.py::test_gcd_with_a_nonzero_constant_is_one_at_once"]),
    Fault("linear-key-lifted-with-unit-one", "src/mlvkit/indval.py",
          "K.canonical_unit(w0)), c0)",
          "K.one()), c0)",
          [PROBE_FACTS]),
    Fault("shifted-values-read-from-the-unshifted-expansion", "src/mlvkit/engine.py",
          "enumerate(shifted) if not K.is_zero(c)}",
          "enumerate(at_a) if not K.is_zero(c)}",
          [PROBE_FACTS]),
    Fault("scan-evidence-includes-the-entry-node", "src/mlvkit/engine.py",
          "b.trajectory[1:probe_budget + 1]",
          "b.trajectory[:probe_budget]",
          ["tests/test_acceptance.py::test_criterion_2_defect_trajectory"]),
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
