"""What importing mlvkit costs, and the behaviour of its record types.

Every CLI call is a fresh process, so the import is part of each call.
The records are NamedTuples or ``__slots__`` classes, not dataclasses:
``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from mlvkit.analyzer import (DrvgResult, KahlerReport, StableValueResult, TameReport,
                             TE1Witness, TEVerdict)
from mlvkit.engine import Branch, ExtensionReport, NoSequence, ScanResult
from mlvkit.graded import NoRoot
from mlvkit.values import ValueGroup

SRC = Path(__file__).resolve().parents[1] / "src"

# every record, with its field names in constructor order
RECORDS = [
    (Branch, ("chain", "stop", "e", "f", "d", "d_lower", "trajectory", "prev_chain")),
    (ExtensionReport, ("K", "g", "n", "branches", "unibranched", "warnings", "bounds")),
    (ScanResult, ("degree", "outcome", "max_poly", "max_value", "evidence")),
    (NoSequence, ("reason",)),
    (NoRoot, ("reason",)),
    (TEVerdict, ("te1", "te2", "te3", "suspected")),
    (TE1Witness, ("g", "verified_index", "method")),
    (TameReport, ("gr_perfect", "gr_witness", "per_extension", "overall", "witness")),
    (KahlerReport, ("kind", "omega_trivial", "annihilator_value", "trace")),
    (DrvgResult, ("verdict", "witness")),
    (StableValueResult, ("stable_value", "stable_initial_coeff", "coeff_str", "l0",
                         "seed", "failure_bound")),
]
FROZEN = [ScanResult, NoSequence, NoRoot, TEVerdict, TE1Witness, KahlerReport,
          DrvgResult, StableValueResult]


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    code = ("import sys, mlvkit.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_keep_their_fields_in_order(cls, fields):
    values = [object() for _ in fields]
    for rec in (cls(*values), cls(**dict(zip(fields, values)))):
        assert [getattr(rec, name) for name in fields] == values


def test_record_defaults():
    assert ScanResult(1, "EMPTY") == ScanResult(1, "EMPTY", None, None, ())
    scan = ScanResult(1, "EMPTY")
    assert (scan.max_poly, scan.max_value, scan.evidence) == (None, None, ())
    assert DrvgResult("HOLDS").witness is None
    assert ValueGroup(Q(1)).hull is None


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_a_frozen_record_refuses_assignment(cls):
    fields = dict(RECORDS)[cls]
    rec = cls(*[1] * len(fields))
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], 2)
    assert getattr(rec, fields[0]) == 1


def test_a_branch_takes_its_defect_later():
    b = Branch("chain", "PROBE_BUDGET", 1, 1, None, None, [], None)
    b.d_lower = 2
    b.d = 1
    assert (b.d, b.d_lower, b.status) == (1, 2, "LIMIT_SUSPECTED")


@pytest.mark.parametrize("cls", [NoSequence, NoRoot], ids=lambda c: c.__name__)
def test_a_missing_answer_is_a_reason_not_a_sequence(cls):
    assert cls("BRANCHED") == cls("BRANCHED")
    assert cls("BRANCHED") != cls("UNRESOLVED")
    assert hash(cls("BRANCHED")) == hash(cls("BRANCHED"))
    assert NoSequence("BRANCHED") != NoRoot("BRANCHED")
    assert cls("BRANCHED") != "BRANCHED" and cls("BRANCHED") != ("BRANCHED",)
    assert repr(cls("BRANCHED")) == f"{cls.__name__}(reason='BRANCHED')"
    no = cls("BRANCHED")
    for clone in (copy.copy(no), copy.deepcopy(no), pickle.loads(pickle.dumps(no))):
        assert clone == no
    with pytest.raises(TypeError):
        iter(cls("BRANCHED"))
    with pytest.raises(TypeError):
        len(cls("BRANCHED"))


def test_value_group_normalizes_compares_and_hashes():
    G = ValueGroup(Q(3, 4), 2)
    assert (G.gen, G.hull) == (3, 2)
    assert G == ValueGroup(Q(3), 2) == ValueGroup(gen=6, hull=2)
    assert hash(G) == hash(ValueGroup(Q(3), 2))
    assert len({G, ValueGroup(Q(3), 2), ValueGroup(Q(3), None)}) == 2
    assert ValueGroup(Q(3, 4)) != G and ValueGroup(Q(3, 4)).gen == Q(3, 4)
    assert str(G) == "(3)Z[1/2]" and str(ValueGroup(Q(3, 4))) == "(3/4)Z"
    assert repr(G) == "ValueGroup(gen=Fraction(3, 1), hull=2)"
    for clone in (copy.copy(G), copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
        assert clone == G and hash(clone) == hash(G)
    with pytest.raises(AttributeError):
        G.gen = Q(1)
    with pytest.raises(AttributeError):
        del G.hull
    with pytest.raises(ValueError):
        ValueGroup(0)
