"""Golden digests: the corpus outputs are pinned byte for byte.

Performance work must leave these outputs unchanged.  A change that is
meant to alter behaviour updates the digests in the same commit and
says why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from corpus import corpus
from mlvkit.cli import report_to_dict
from mlvkit.engine import NoSequence, finite_complete_sequence, mac_lane_chains

ROOT = Path(__file__).resolve().parents[1]

RUN_CORPUS_JSON_SHA256 = "25a644fa6748855a21006b0fcaf1cb2a74d6f98282891618bd0c8300acc8f8cb"
REPORTS_AND_FCS_SHA256 = "7c83d118aa55d388f50035961f65ce490ade75fec4cb87af7d7f9a7dd5498545"


def test_run_corpus_json_is_pinned():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_corpus.py"), "--json"],
                         capture_output=True, check=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert hashlib.sha256(out.stdout).hexdigest() == RUN_CORPUS_JSON_SHA256


def test_reports_and_complete_sequences_are_pinned():
    """report_to_dict JSON and the default FCS (100 self-check samples) of
    every corpus polynomial, one line each."""
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
