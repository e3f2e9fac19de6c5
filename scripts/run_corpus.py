#!/usr/bin/env python3
"""Sweep the extension corpus and tabulate branch invariants.

Usage: python scripts/run_corpus.py [--json]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from corpus import corpus  # noqa: E402
from mlvkit.engine import NoSequence, finite_complete_sequence, mac_lane_chains  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    for K, polys in corpus():
        for g in polys:
            rep = mac_lane_chains(K, g)
            seq = finite_complete_sequence(rep)
            rows.append({
                "field": K.descriptor_str(),
                "poly": g.to_str(),
                "n": rep.n,
                "branches": len(rep.branches),
                "status": "/".join(sorted({b.status for b in rep.branches})),
                "ef": [[b.e, b.f] for b in rep.branches],
                "sumEF": rep.sum_ef,
                "sumEFD": rep.sum_efd,
                "fcs": not isinstance(seq, NoSequence),
            })

    if args.json:
        print(json.dumps(rows, indent=1, sort_keys=True))
        return

    width = max(len(r["poly"]) for r in rows)
    print(f"{'field':<14} {'poly':<{width}}  br  status            e*f pairs        sum ef(d)  FCS")
    for r in rows:
        efd = f"{r['sumEF']}({r['sumEFD']})" if r["sumEFD"] is not None else f"{r['sumEF']}(?)"
        print(f"{r['field']:<14} {r['poly']:<{width}}  {r['branches']:>2}  "
              f"{r['status']:<17} {str(r['ef']):<16} {efd:<9}  {'yes' if r['fcs'] else 'no'}")
    total = len(rows)
    exact = sum(1 for r in rows if r["sumEFD"] == r["n"])
    print(f"\n{total} polynomials; fundamental equality certified on {exact}, "
          f"bounded on {total - exact}")


if __name__ == "__main__":
    main()
