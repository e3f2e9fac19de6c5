"""Golden digests: the corpus outputs are pinned byte for byte.

Performance work must leave these outputs unchanged.  A change that is
meant to alter behaviour updates the digests in the same commit and
says why.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import corpus
from mlvkit.cli import main, report_to_dict
from mlvkit.engine import NoSequence, finite_complete_sequence, mac_lane_chains

ROOT = Path(__file__).resolve().parents[1]

RUN_CORPUS_JSON_SHA256 = "25a644fa6748855a21006b0fcaf1cb2a74d6f98282891618bd0c8300acc8f8cb"
REPORTS_AND_FCS_SHA256 = "7c83d118aa55d388f50035961f65ce490ade75fec4cb87af7d7f9a7dd5498545"
README_CLI_SHA256 = {  # stdout of each README CLI example, by argv
    "extend --field Qp(2) --poly x^2-2":
        "a51d4644479550069c5d0ae143f68b27985c7df859394750e097a930ceda42d0",
    "extend --field Qp(2) --poly x^2-2 --max-depth 32 --limit-probes 8 --json":
        "cb41689cbe771c4b9709ebaea933473cdeeaffe7cdeae42167042d848ea62512",
    "field --field FpPerf(2,t) --valuate t^(1/2)+t --residue 1/(1+t) --choice 3/4":
        "b44c02f7af7c6d0b23be2be9ccfdef2d9dc8a35f5befaa98a2b3396e92ca50cf",
    "graded --field Qp(3) --mul T^1 T^1 --choice 1=3,2=18":
        "c13cd9a6651d39538656c753c45efb563ed92900ab3a51689c79991eb409fda4",
    "graded --field FpC(2,c,t) --surjective --json":
        "5b0fbfe4192109572d01dcea50e95a9fbeb9cfd1d3f51dc34dd43ad24fa8fcd5",
    "graded --field Qp(2) --initial-form 12 --frobenius T^2":
        "1b0e5794db9b9fdfa7506ee3540645def81448e0b40878f4eb33720eefb07697",
    "tame --field FpPerf(2,t) --suite x^3+t;x^2+x+1/t --json":
        "060f09f77524107706b4d9fe0a5a5d0f214595960928d5d4978338d8089c6731",
    "kahler --field Qp(2) --poly x^2-2":
        "8b753a8ccebe12d88e6e1ac06090e2c92bff2476e891bfd850e0fb6f46379a04",
    "stable-value --p 2 --expr S - (c1*T + c2*T^2) --seed 0 --l-max 12":
        "e1f64345826f9bb8f474c050108bdb6f39589f5163232b60c900b5f60e67dbb2",
}
TAME_SURVEY_SHA256 = "f1803e45a14c3bc8cf609bffcf926b7675b33ef2eda7318de66fbad3473d1752"
# stdout of extend --json at deep probe budgets, by (field, poly, budget):
# the perfect_closure ladders past their benchmark budgets, the Qp(3)
# and Fq(3,t) clustered families of tests/test_engine.py at k = 200, and
# two ladders whose one-term shifts pass most coefficients through
# (binom(9, i) = 0 mod 3 and binom(8, i) = 0 mod 2 for 0 < i < 9, 8), and
# a ladder at depth one over Qp(2): phi^2 - 2^400 * 17, phi = x^2 + x + 1/3,
# whose two branches make 104 and 105 probes at the key phi of degree 2
DEEP_RUNS_SHA256 = {
    ("FpPerf(2,t)", "x^2+x+1/t", 200):
        "fa1a20781dce18fc368d9cd94e733bc9dfddcf7abc9f65018879374fef2f874e",
    ("FpPerf(2,t)", "x^4+x+1/t", 60):
        "068303f24251695ba0dccf4c9a5fd30b974ddabb040f995c92631921d6959b2b",
    ("FpPerf(3,t)", "x^3-x-1/t", 100):
        "fca6cca541a4e2094cb15f948cf04041eb52c94a4c5c6823444a01d7f2b5f09c",
    ("Qp(3)", "(x - 1/5)^2 - 3^200*(7)", 400):
        "c33d7de5e33c39ff3a27de7fe7dcca6060df9cf33a999ef50c4287bc82d8f11c",
    ("Fq(3,t)", "(x - 1/(1+t))^2 - t^200*(1+t)", 400):
        "5d7947acce8b3891491e65d22037c82982fa6d4aab694ffb98daab97bd1d987b",
    ("FpPerf(3,t)", "x^9-x-1/t", 60):
        "a85334591ef3349780392a43b194890ef3dc54c1ec84be22546795300f21c736",
    ("FpPerf(2,t)", "x^8+x+1/t", 100):
        "d3c455adec633d26092f1ee1a85e173fadef6bb31319c629b813eab063f31230",
    ("Qp(2)", "(x^2+x+1/3)^2-2^400*17", 400):
        "812c66b9b8a866e330dbbd02f30755635346d642ac32111c377239ae63525de1",
}


def _readme_cli_commands():
    """argv lists for each `mlvkit ...` line of the README "CLI" block.

    A line with optional `[--opt value]` parts is run twice: without them
    and with all of them.
    """
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        if not line.startswith("mlvkit "):
            continue
        forms = [re.sub(r"\s*\[[^\]]*\]", "", line), line.replace("[", "").replace("]", "")]
        for form in dict.fromkeys(forms):
            out.append(shlex.split(form)[1:])
    return out


def test_run_corpus_json_is_pinned():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_corpus.py"), "--json"],
                         capture_output=True, check=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert hashlib.sha256(out.stdout).hexdigest() == RUN_CORPUS_JSON_SHA256


def test_tame_survey_is_pinned():
    """The survey script: four field families and the appendix stable values."""
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "tame_survey.py")],
                         capture_output=True, check=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert hashlib.sha256(out.stdout).hexdigest() == TAME_SURVEY_SHA256


def test_reports_and_complete_sequences_are_pinned():
    """report_to_dict JSON and the finite complete sequence (or its
    NoSequence reason) of every corpus polynomial, one line each."""
    h = hashlib.sha256()
    for K, polys in corpus():
        for g in polys:
            rep = mac_lane_chains(K, g)
            seq = finite_complete_sequence(rep)
            h.update(json.dumps(report_to_dict(rep), sort_keys=True,
                                separators=(",", ":")).encode() + b"\n")
            fcs = seq.reason if isinstance(seq, NoSequence) else ";".join(q.to_str() for q in seq)
            h.update(fcs.encode() + b"\n")
    assert h.hexdigest() == REPORTS_AND_FCS_SHA256


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=" ".join)
def test_readme_cli_examples_are_pinned(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == README_CLI_SHA256[" ".join(argv)]


@pytest.mark.parametrize("field,poly,budget", sorted(DEEP_RUNS_SHA256),
                         ids=lambda v: str(v))
def test_deep_probe_runs_are_pinned(field, poly, budget, capsys):
    argv = ["extend", "--json", "--field", field, "--poly", poly,
            "--limit-probes", str(budget)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_RUNS_SHA256[field, poly, budget]


# GF(q) outputs over q = p^m, m >= 2: the residue fields that the corpus and
# the survey (Fq(2,t), Fq(3,t) only) never reach.  256 is the largest order
# whose arithmetic runs on log tables, 289 = 17^2 the next order with m >= 2.
GFQ_ORDERS = (4, 8, 9, 16, 25, 27, 81, 243, 256, 289)
GFQ_EXTEND_POLYS = ("x^2+t", "x^2+x+t", "x^2+x+1/t", "x^3+t", "x^3+t^2*x+t",
                    "(x^2+x+1)^2+t", "(x^2+1)^2+t^3", "(x^3+x+1)^2+t*x",
                    "(x^2+x+1)^3+t", "(x^3+2*x+2)^2+t", "x^4+x+1+t",
                    "(x^4+x+1)^2+t", "x^6+t^2*x+t^3", "(x^2+2)^2+t^2*x+t^3")
GFQ_TAME_SUITES = ("x^3+t;x^2+x+t", "(x^2+x+1)^2+t;x^4+x+1+t")
GFQ_KAHLER_POLYS = ("x^2+t", "(x^2+x+1)^2+t", "x^4+x+1+t")
GFQ_STABLE_EXPRS = ("S - (c1*T + c2*T^2)", "(S^2 - c1*S*T)/(S + c3*T^2)", "c1*S^3 + T*S + c2*T^3")
GFQ_STABLE_ORDERS = ((2, 4), (2, 8), (3, 9), (2, 16), (3, 27))
# kahler on (x^2+x+1)^2+t = (x-1)^4+t answers PURELY_RAMIFIED with
# annihilator 3/4, as x^4+t does, through the depth-zero centre 1; a purely
# inertial answer no longer reads v(g'(eta)), so the trace of kahler on
# x^4+x+1+t over Fq(8,t) drops its "v(g'(eta)) = 0" line (the only
# command whose bytes moved with that change)
GFQ_SHA256 = "967926e19e2eff68c2573d5d168d560ff879da22af3b19d92acc0f449fdcd0a8"


def _gfq_commands():
    for q in GFQ_ORDERS:
        field = f"Fq({q},t)"
        for g in GFQ_EXTEND_POLYS:
            yield ["extend", "--json", "--field", field, "--poly", g]
        for suite in GFQ_TAME_SUITES:
            yield ["tame", "--json", "--field", field, "--suite", suite]
        yield ["graded", "--json", "--field", field, "--surjective"]
        for g in GFQ_KAHLER_POLYS:
            yield ["kahler", "--json", "--field", field, "--poly", g]
    for p, q in GFQ_STABLE_ORDERS:
        for expr in GFQ_STABLE_EXPRS:
            for seed in range(4):
                yield ["stable-value", "--json", "--p", str(p), "--q", str(q),
                       "--expr", expr, "--seed", str(seed)]


def test_gfq_outputs_are_pinned(capsys):
    """Exit code, stdout and stderr of extend, tame, graded and kahler over
    Fq(q,t) for q = p^m, m >= 2, and of stable-value sampling from GF(q)."""
    h = hashlib.sha256()
    for argv in _gfq_commands():
        code = main(argv)
        out, err = capsys.readouterr()
        h.update(f"{' '.join(argv)}\n{code}\n{out}{err}\n".encode())
    assert h.hexdigest() == GFQ_SHA256
