"""Command-line interface.

Subcommands: field, extend, graded, tame, kahler, stable-value.  Every
command supports --json; JSON output is deterministic (sorted keys,
exact rationals as "num/den" strings, infinity as "inf") so repeated
runs with the same inputs and seed are byte-identical.

Each subcommand returns its JSON object and a renderer for the text form;
``main`` is the only place that writes to stdout.

Exit codes: 0 success (also when the reader closes stdout early), 2 parse
error, 3 engine/analyzer error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, List, Optional, Tuple

from . import graded
from .analyzer import NOT_STABILIZED, classify_kahler, stable_value, tame_report
from .engine import (LIMIT_SUSPECTED, Branch, ExtensionReport, NoSequence,
                     finite_complete_sequence, mac_lane_chains)
from .errors import BadFieldOrder, MlvError, ParseError
from .parsing import (parse_choice_overrides, parse_element, parse_expression,
                      parse_field, parse_graded, parse_poly, parse_value)
from .values import value_str

SCHEMA_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def branch_to_dict(b: Branch) -> dict:
    chain = []
    for st in b.chain.stages():
        chain.append({
            "phi": st.phi.to_str(),
            "gamma": value_str(st.gamma),
            "m": st.degree,
            "e": st.e_rel,
            "f": st.fdeg,
        })
    out = {
        "status": b.status,
        "chain": chain,
        "e": b.e,
        "f": b.f,
        # the key polynomials are the chain's phis, printed once above
        "keyPolys": [st["phi"] for st in chain],
    }
    if b.d is not None:
        out["d"] = b.d
    else:
        out["d"] = {"lowerBound": b.d_lower}
    if b.status == LIMIT_SUSPECTED:
        out["trajectory"] = [
            {"key": e["key"].to_str(), "gamma": value_str(e["gamma"]),
             "gValue": value_str(e["g_value"])}
            for e in b.trajectory]
    return out


def report_to_dict(report: ExtensionReport) -> dict:
    d = {
        "schemaVersion": SCHEMA_VERSION,
        "field": report.K.descriptor_str(),
        "poly": report.g.to_str(),
        "n": report.n,
        "unibranched": report.unibranched,
        "branches": [branch_to_dict(b) for b in report.branches],
        "sumCheck": {
            "sumEF": report.sum_ef,
            "sumEFD": report.sum_efd,
            "equalsN": report.sum_efd == report.n,
        },
        "bounds": report.bounds,
    }
    if report.warnings:
        d["warnings"] = report.warnings
    return d


def report_text(d: dict) -> str:
    """Text form of a ``report_to_dict`` object."""
    lines = [f"extensions of v to {d['field']}[x]/({d['poly']})",
             f"  n = {d['n']}, branches = {len(d['branches'])}, "
             f"unibranched = {d['unibranched']}"]
    for i, b in enumerate(d["branches"]):
        dstr = f">= {b['d']['lowerBound']}" if isinstance(b["d"], dict) else str(b["d"])
        lines.append(f"  branch {i}: {b['status']}  e = {b['e']}  f = {b['f']}  d = {dstr}")
        bases = ["v"] + [f"mu{j}" for j in range(len(b["chain"]) - 1)]
        chain = " -> ".join(f"mu{j}=[{base}; {st['phi']}, {st['gamma']}]"
                            for j, (base, st) in enumerate(zip(bases, b["chain"])))
        lines.append(f"    chain: {chain}")
        traj = b.get("trajectory", [])
        if len(traj) > 1:
            vals = ", ".join(e["gamma"] for e in traj[1:7])
            lines.append(f"    value trajectory: {vals}, ...")
    sc = d["sumCheck"]
    lines.append(f"  sum e*f = {sc['sumEF']}"
                 + (f", sum e*f*d = {sc['sumEFD']}" if sc["sumEFD"] is not None else "")
                 + f" (n = {d['n']})")
    for w in d.get("warnings", ()):
        lines.append(f"  warning: {w}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# a command's JSON object, which main stamps with the schema version, and
# the renderer of its text lines
Rendered = Tuple[dict, Callable[[], List[str]]]


def cmd_field(args) -> Rendered:
    K = parse_field(args.field)
    out = {"field": K.descriptor_str(), "residueChar": K.p, "valueGroup": str(K.value_group),
           "residuePerfect": K.residue_perfect()[0]}
    if args.valuate is not None:
        a = parse_element(args.valuate, K)
        out["valuate"] = {"element": K.elem_str(a),
                          "value": value_str(K.valuate(a))}
    if args.residue is not None:
        a = parse_element(args.residue, K)
        out["residue"] = {"element": K.elem_str(a),
                          "residue": K.residue_field.elem_str(K.residue(a))}
    if args.choice is not None:
        gamma = parse_value(args.choice)
        out["choice"] = {"gamma": value_str(gamma),
                         "element": K.elem_str(K.choice(gamma))}

    def render():
        head = (f"{out['field']}: residue char {out['residueChar']}, "
                f"value group {out['valueGroup']}, residue {out['residuePerfect']}")
        return [head] + [f"  {key}: {out[key]}"
                         for key in ("valuate", "residue", "choice") if key in out]
    return out, render


def cmd_extend(args) -> Rendered:
    K = parse_field(args.field)
    g = parse_poly(args.poly, K)
    report = mac_lane_chains(K, g, max_depth=args.max_depth,
                             max_limit_probes=args.limit_probes)
    out = report_to_dict(report)

    def render():
        seq = finite_complete_sequence(report)
        fcs = f"NONE ({seq.reason})" if isinstance(seq, NoSequence) \
            else ", ".join(q.to_str() for q in seq)
        return [report_text(out), f"  finite complete sequence: {fcs}"]
    return out, render


def _frobenius_witness(K, witness):
    """JSON form of a Frobenius witness (kind, value), or None."""
    if witness is None:
        return None
    kind, val = witness
    return {"kind": kind,
            "value": value_str(val) if kind == "VALUE_WITNESS"
            else K.residue_field.elem_str(val)}


def cmd_graded(args) -> Rendered:
    K = parse_field(args.field)
    if args.choice:
        overrides = parse_choice_overrides(args.choice, K)
        try:
            K = K.with_choice_overrides(overrides)
        except ValueError as exc:  # an override of the wrong value
            raise ParseError(str(exc)) from exc
    out = {"field": K.descriptor_str()}
    if args.mul:
        x = parse_graded(args.mul[0], K)
        y = parse_graded(args.mul[1], K)
        prod = graded.twisted_mul(K, x, y)
        out["mul"] = {"lhs": graded.element_str(K, x),
                      "rhs": graded.element_str(K, y),
                      "result": graded.element_str(K, prod)}
    if args.frobenius is not None:
        x = parse_graded(args.frobenius, K)
        out["frobenius"] = {"arg": graded.element_str(K, x),
                            "result": graded.element_str(K, graded.frobenius(K, x))}
    if args.initial_form is not None:
        a = parse_element(args.initial_form, K)
        out["initialForm"] = {"element": K.elem_str(a),
                              "result": graded.element_str(K, graded.initial_form(K, a))}
    if args.surjective:
        verdict, witness = graded.frobenius_surjective(K)
        out["frobeniusSurjective"] = {"verdict": verdict,
                                      "witness": _frobenius_witness(K, witness)}
    return out, lambda: [val["result"] if key == "mul" else f"{key}: {val}"
                         for key, val in out.items() if key != "field"]


def cmd_tame(args) -> Rendered:
    K = parse_field(args.field)
    suite = [parse_poly(s, K) for s in args.suite.split(";") if s.strip()]
    if not suite:
        raise ParseError("--suite names no polynomial")
    tr = tame_report(K, suite)
    out = {
        "field": K.descriptor_str(),
        "grPerfect": tr.gr_perfect,
        "overall": tr.overall,
        "perExtension": [
            {"g": e["g"].to_str(), "fcs": e["fcs"], "fcsReason": e["fcs_reason"],
             "te1": e["te1"], "te2": e["te2"], "te3": e["te3"],
             "suspected": e["suspected"]}
            for e in tr.per_extension],
    }
    if tr.witness is not None:
        w = dict(tr.witness)
        if "g" in w:
            w["g"] = w["g"].to_str()
        if "witness" in w:
            w["witness"] = _frobenius_witness(K, w["witness"])
        out["witness"] = w

    def render():
        lines = [f"{out['field']}: {out['overall']} (gr perfect: {out['grPerfect']})"]
        lines += [f"  {e['g']}: FCS={e['fcs']} TE1={e['te1']} TE2={e['te2']} TE3={e['te3']}"
                  for e in out["perExtension"]]
        if "witness" in out:
            lines.append(f"  witness: {out['witness']}")
        return lines
    return out, render


def cmd_kahler(args) -> Rendered:
    K = parse_field(args.field)
    g = parse_poly(args.poly, K)
    report = mac_lane_chains(K, g)
    kr = classify_kahler(report)
    out = {
        "field": K.descriptor_str(),
        "poly": g.to_str(),
        "kind": kr.kind,
        "omegaTrivial": kr.omega_trivial,
        "annihilatorValue": None if kr.annihilator_value is None
        else value_str(kr.annihilator_value),
        "trace": list(kr.trace),
    }
    return out, lambda: ([f"{out['poly']} over {out['field']}: {out['kind']}, "
                          f"Omega trivial: {out['omegaTrivial']}"]
                         + [f"  {line}" for line in out["trace"]])


def cmd_stable_value(args) -> Rendered:
    ast = parse_expression(args.expr)
    try:
        res = stable_value(args.p, ast, q=args.q, l_start=args.l_start,
                           l_max=args.l_max, seed=args.seed)
    except BadFieldOrder as exc:
        # --p and --q name the field, like a --field descriptor
        raise ParseError(str(exc)) from exc
    if res == NOT_STABILIZED:
        out = {"outcome": "NOT_STABILIZED", "expr": args.expr, "seed": args.seed}
    else:
        out = {"outcome": "STABILIZED", "expr": args.expr,
               "stableValue": res.stable_value,
               "stableInitialCoeff": res.coeff_str, "l0": res.l0,
               "seed": res.seed,
               "failureBound": value_str(res.failure_bound)}
    return out, lambda: ["NOT_STABILIZED" if out["outcome"] == "NOT_STABILIZED" else
                         f"stable value {out['stableValue']} from l0 = {out['l0']}, "
                         f"initial coefficient {out['stableInitialCoeff']} "
                         f"(failure bound {out['failureBound']})"]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


# built on the first main call, not at import, and reused: parse_args leaves
# the parser unchanged (defaults are copied into a fresh Namespace, and help
# reads the terminal width when it is formatted)
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mlvkit",
        description="Exact workbench for inductive valuations, key polynomial "
                    "chains, graded rings and tameness criteria.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="field descriptor queries")
    p.add_argument("--field", required=True)
    p.add_argument("--valuate")
    p.add_argument("--residue")
    p.add_argument("--choice")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("extend", help="extensions of v to K[x]/(g)")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--max-depth", type=int, default=32)
    p.add_argument("--limit-probes", type=int, default=8)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("graded", help="twisted semigroup ring arithmetic")
    p.add_argument("--field", required=True)
    p.add_argument("--choice", help="epsilon overrides, e.g. '1=3,2=18'")
    p.add_argument("--mul", nargs=2, metavar=("A", "B"))
    p.add_argument("--frobenius")
    p.add_argument("--initial-form")
    p.add_argument("--surjective", action="store_true")
    p.set_defaults(func=cmd_graded)

    p = sub.add_parser("tame", help="tameness evidence over a suite")
    p.add_argument("--field", required=True)
    p.add_argument("--suite", required=True, help="semicolon-separated polynomials")
    p.set_defaults(func=cmd_tame)

    p = sub.add_parser("kahler", help="Kaehler differential criteria")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_kahler)

    p = sub.add_parser("stable-value", help="appendix stable-value algorithm")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--l-start", type=int, default=1)
    p.add_argument("--l-max", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stable_value)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out, render = args.func(args)
        lines = [_dump({**out, "schemaVersion": SCHEMA_VERSION})] if args.json else render()
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except MlvError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    try:
        print("".join(f"{line}\n" for line in lines), end="", flush=True)
    except BrokenPipeError:
        # the reader stopped reading: point stdout at devnull so that the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
