import itertools
import json

import pytest

from mlvkit.cli import SCHEMA_VERSION, _dump, main, report_to_dict
from mlvkit.engine import mac_lane_chains
from mlvkit.fields import QpField
from mlvkit.parsing import MAX_EXPONENT, MAX_NESTING, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_extend_json(capsys):
    code, out, _ = run(capsys, "extend", "--field", "Qp(2)", "--poly", "x^2-2", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["schemaVersion"] == 1
    b = d["branches"][0]
    assert (b["e"], b["f"], b["d"]) == (2, 1, 1)
    assert d["sumCheck"]["equalsN"]


def test_extend_text_chain_notation(capsys):
    code, out, _ = run(capsys, "extend", "--field", "Qp(2)", "--poly", "x^2-2")
    assert code == 0
    assert "mu0=[v; x, 1/2] -> mu1=[mu0; x^2 - 2, inf]" in out
    assert "finite complete sequence: x, x^2 - 2" in out


def test_extend_text_at_probe_budget_zero(capsys):
    code, out, _ = run(capsys, "extend", "--field", "Qp(2)", "--poly", "x^2-2",
                       "--limit-probes", "0")
    assert code == 0
    assert "LIMIT_SUSPECTED  e = 2  f = 1  d = 1" in out
    assert "value trajectory" not in out
    assert "finite complete sequence: NONE (UNRESOLVED)" in out
    code, out, _ = run(capsys, "extend", "--field", "FpPerf(2,t)", "--poly", "x^2+x+1/t",
                       "--limit-probes", "1")
    assert code == 0
    assert "    value trajectory: -1/4, ...\n" in out
    assert "finite complete sequence: NONE (DEFECT_SUSPECTED)" in out


def test_graded_override_example(capsys):
    code, out, _ = run(capsys, "graded", "--field", "Qp(3)",
                       "--mul", "T^1", "T^1", "--choice", "1=3,2=18")
    assert code == 0
    assert out.strip() == "2*T^2"
    # a power at the exponent cap takes about log2(1000) twisted products;
    # by Lucas, (1+T)^1000 = (1+T)(1+T^27)(1+T^243)(1+T^729) over GF(3)
    import time
    start = time.perf_counter()
    code, out, _ = run(capsys, "graded", "--field", "Qp(3)", "--mul", "(1+T)^1000", "1",
                       "--json")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    terms = [sum(e) for e in itertools.product((0, 1), (0, 27), (0, 243), (0, 729))]
    assert json.loads(out)["mul"]["result"] == " + ".join(
        ["1", "T"] + [f"T^{e}" for e in sorted(terms)[2:]])


def test_missing_field_is_parse_error(capsys):
    code, _, _ = run(capsys, "extend", "--poly", "x^2-2")
    assert code == 2


def test_bad_token_is_parse_error(capsys):
    code, _, err = run(capsys, "extend", "--field", "Qp(2)", "--poly", "x^2-$")
    assert code == 2
    code, _, err = run(capsys, "extend", "--field", "Zp(2)", "--poly", "x^2-2")
    assert code == 2
    assert "Zp" in err


@pytest.mark.parametrize("desc, code", [
    ("Qp(2)", 0), ("Qp( 3 )", 0), ("Fq(4,t)", 0), ("Fq( 9 , t )", 0),
    ("FpPerf(2,t)", 0), ("FpC(2,c,t)", 0), ("FpC(3, c, t)", 0),
    ("Qp(2,3)", 2), ("Qp()", 2), ("Fq(4)", 2), ("Fq(9,x)", 2), ("Fq(4,t,t)", 2),
    ("FpPerf(2)", 2), ("FpPerf(2,u)", 2), ("FpC(2)", 2), ("FpC(2,t,c)", 2),
    ("FpC(2,c)", 2), ("Fq(6,t)", 2)])
def test_field_descriptors_are_strict(capsys, desc, code):
    got, _, err = run(capsys, "field", "--field", desc)
    assert got == code, err
    if code:
        assert "bad field descriptor" in err


def test_engine_error_exit_code(capsys):
    # imperfect residue field: engine refuses with a typed error -> exit 3
    code, _, err = run(capsys, "extend", "--field", "FpC(2,c,t)", "--poly", "x^2+x+1")
    assert code == 3
    assert "RESIDUE_UNSUPPORTED" in err


def test_json_determinism(capsys):
    args = ("extend", "--field", "FpPerf(2,t)", "--poly", "x^2+x+1/t", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args2 = ("stable-value", "--p", "2", "--expr", "S", "--seed", "7", "--json")
    _, s1, _ = run(capsys, *args2)
    _, s2, _ = run(capsys, *args2)
    assert s1 == s2


def test_report_round_trip_full_corpus():
    from corpus import corpus
    for K, polys in corpus():
        for g in polys:
            rep = mac_lane_chains(K, g)
            d = report_to_dict(rep)
            assert d["schemaVersion"] == SCHEMA_VERSION
            assert json.loads(_dump(d)) == d


def test_graded_element_syntax(capsys):
    code, out, _ = run(capsys, "graded", "--field", "FpPerf(3,t)",
                       "--mul", "2*T^(1/3) + T^2", "T^(1/3)", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["mul"]["lhs"] == "2*T^(1/3) + T^2"
    assert d["mul"]["result"] == "2*T^(2/3) + T^(7/3)"


def test_field_command(capsys):
    code, out, _ = run(capsys, "field", "--field", "FpPerf(2,t)",
                       "--valuate", "t^(1/2)+t", "--choice", "3/4", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["valuate"]["value"] == "1/2"
    assert d["choice"]["element"] == "t^(3/4)"
    assert d["residuePerfect"] == "PERFECT"


def test_tame_command(capsys):
    for field, suite, kind in [("Qp(2)", "x^2-2", "VALUE_WITNESS"),
                               ("FpC(2,c,t)", "x^2+t", "RESIDUE_WITNESS")]:
        code, out, _ = run(capsys, "tame", "--field", field, "--suite", suite, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["overall"] == "NOT_TAME"
        assert d["witness"]["kind"] == "GR_IMPERFECT"
        # tame and graded serialize the same Frobenius witness
        code, out, _ = run(capsys, "graded", "--field", field, "--surjective", "--json")
        assert code == 0
        graded_witness = json.loads(out)["frobeniusSurjective"]["witness"]
        assert graded_witness["kind"] == kind
        assert d["witness"]["witness"] == graded_witness
    code, out, _ = run(capsys, "tame", "--field", "FpPerf(2,t)", "--suite", "x^3+t;x^2+x+1/t")
    assert code == 0
    assert out.splitlines() == [
        "FpPerf(2,t): NOT_TAME (gr perfect: True)",
        "  x^3 + t: FCS=True TE1=True TE2=True TE3=True",
        "  x^2 + x + 1/t: FCS=False TE1=True TE2=True TE3=False",
        "  witness: {'kind': 'FCS_FAILURE', 'g': 'x^2 + x + 1/t', 'reason': 'DEFECT_SUSPECTED'}",
    ]


def test_tame_over_imperfect_residue_uses_the_graded_witness(capsys):
    # the engine cannot branch over GF(2)(c), but gr(K) already decides
    code, out, _ = run(capsys, "tame", "--field", "FpC(2,c,t)",
                       "--suite", "x^2+t;x^3+c", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["overall"] == "NOT_TAME"
    assert d["witness"] == {"kind": "GR_IMPERFECT",
                            "witness": {"kind": "RESIDUE_WITNESS", "value": "c"}}
    assert [e["g"] for e in d["perExtension"]] == ["x^2 + t", "x^3 + c"]
    for e in d["perExtension"]:
        assert e["fcs"] is None and e["fcsReason"] == "RESIDUE_UNSUPPORTED"
        assert e["te1"] is None and e["te2"] is None and e["te3"] is None


@pytest.mark.parametrize("suite", ["", " ; ", ";"])
def test_an_empty_tame_suite_is_a_parse_error(capsys, suite):
    # nothing examined is no TAME_EVIDENCE
    code, out, err = run(capsys, "tame", "--field", "FpPerf(2,t)", "--suite", suite, "--json")
    assert code == 2 and out == ""
    assert "--suite names no polynomial" in err


@pytest.mark.parametrize("field", ["FpC(3,c,t)", "FpC(2,c,t)"])
def test_tame_over_imperfect_residue_checks_monic(capsys, field):
    # as over Qp, a non-monic suite polynomial is an engine error; over
    # FpC(2,c,t) the suite reduces to the constant c
    code, out, err = run(capsys, "tame", "--field", field, "--suite", "2*x^2+c")
    assert code == 3 and out == ""
    assert "NOT_MONIC" in err


@pytest.mark.parametrize("flag", ["--limit-probes", "--max-depth"])
def test_negative_bound_is_engine_error(capsys, flag):
    code, out, err = run(capsys, "extend", "--field", "Qp(2)", "--poly", "x^2-2",
                         flag, "-3", "--json")
    assert code == 3 and out == ""
    assert "BAD_BOUND" in err


def test_limit_probes_above_the_cap_is_refused_before_exploring(capsys):
    # x^2+x+1/t stalls at every budget and its cost grows steeply with the
    # budget: 1000 would take minutes, while 1001 is refused at once
    import time
    start = time.perf_counter()
    code, out, err = run(capsys, "extend", "--field", "FpPerf(2,t)", "--poly", "x^2+x+1/t",
                         "--limit-probes", str(MAX_EXPONENT + 1), "--json")
    assert time.perf_counter() - start < 10.0
    assert (code, out) == (3, "")
    assert f"[BAD_BOUND]: max_limit_probes = {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}" in err


@pytest.mark.parametrize("argv, code, token", [
    (["--l-max", "0"], 3, "BAD_BOUND"),
    (["--l-start", "5", "--l-max", "4"], 3, "BAD_BOUND"),
    (["--p", "4"], 2, "4 is not prime"),
    (["--q", "6"], 2, "6 is not a power of p = 2"),
    (["--expr", "S-S"], 3, "ZERO_INPUT"),
    (["--expr", "T/0"], 2, "division by the zero expression"),
    (["--expr", "(T-T)^-1"], 2, "division by the zero expression"),
    (["--expr", "c0"], 2, "coefficient c0 is not one of c1..c12 (l_max = 12)"),
    (["--expr", "c13"], 2, "coefficient c13 is not one of c1..c12 (l_max = 12)"),
    (["--expr", "((S+T)^1000)^1000"], 2, "degree 1000000 of a power exceeds 1000"),
    (["--expr", "(S*T)^501"], 2, "degree 1002 of a power exceeds 1000"),
    (["--expr", "(T/(S*T))^-501"], 2, "degree 1002 of a power exceeds 1000"),
    (["--q", "0"], 2, "0 is not a power of p = 2"),
    (["--q", "-8"], 2, "-8 is not a power of p = 2"),
])
def test_stable_value_bad_input_exit_codes(capsys, argv, code, token):
    base = {"--p": "2", "--expr": "S"}
    opts = dict(base, **dict(zip(argv[::2], argv[1::2])))
    got, out, err = run(capsys, "stable-value", *[a for kv in opts.items() for a in kv])
    assert (got, out) == (code, "")
    assert token in err


def test_stable_value_l_max_at_the_cap(capsys):
    # the cap is MAX_EXPONENT itself: l_max = 1000 answers, 1001 is BAD_BOUND
    code, out, err = run(capsys, "stable-value", "--p", "2", "--expr", "S",
                         "--l-max", str(MAX_EXPONENT), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["l0"] == 1
    code, out, err = run(capsys, "stable-value", "--p", "2", "--expr", "S",
                         "--l-max", str(MAX_EXPONENT + 1), "--json")
    assert (code, out) == (3, "")
    assert "BAD_BOUND" in err


def test_kahler_command(capsys):
    code, out, _ = run(capsys, "kahler", "--field", "Qp(2)", "--poly", "x^2-2", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["kind"] == "PURELY_RAMIFIED"
    assert d["omegaTrivial"] is False
    assert d["annihilatorValue"] == "3/2"


def test_kahler_unit_root_is_translated(capsys):
    # (x^2+x+1)^2 + t = (x - 1)^4 + t: the same extension as x^4 + t, whose
    # root is the root of g minus the depth-zero centre 1
    answers = []
    for poly in ("(x^2+x+1)^2+t", "x^4+t"):
        code, out, err = run(capsys, "kahler", "--json", "--field", "Fq(3,t)", "--poly", poly)
        assert (code, err) == (0, "")
        d = json.loads(out)
        answers.append((d["kind"], d["omegaTrivial"], d["annihilatorValue"], d["trace"][1]))
    assert answers == [("PURELY_RAMIFIED", False, "3/4", "gamma = v(eta - 1) = 1/4"),
                       ("PURELY_RAMIFIED", False, "3/4", "gamma = v(eta) = 1/4")]
    # the root 1/t + sqrt(-1/t) is still not small after the translation
    code, out, err = run(capsys, "kahler", "--field", "Fq(3,t)", "--poly", "(x-1/t)^2+1/t")
    assert (code, out) == (3, "")
    assert err == "error [GAMMA_NOT_POSITIVE]: v(eta - 1/t) = -1/2 must be positive\n"


def test_graded_surjective_command(capsys):
    code, out, _ = run(capsys, "graded", "--field", "FpC(2,c,t)", "--surjective", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["frobeniusSurjective"]["verdict"] == "NO"
    assert d["frobeniusSurjective"]["witness"]["kind"] == "RESIDUE_WITNESS"
    assert d["frobeniusSurjective"]["witness"]["value"] == "c"


@pytest.mark.parametrize("argv, token", [
    (("stable-value", "--p", "1000000007", "--expr", "S", "--json"), '"stableValue":1'),
    (("field", "--field", f"Fq({1000000007 ** 3},t)"), "residue char 1000000007"),
    (("field", "--field", f"Fq({1000000007 ** 4},t)"), "residue char 1000000007"),
], ids=["stable-value", "Fq(p^3,t)", "Fq(p^4,t)"])
def test_large_prime_moduli_are_prompt(capsys, argv, token):
    import time
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 0 and token in out


def test_stable_value_command(capsys):
    code, out, _ = run(capsys, "stable-value", "--p", "2",
                       "--expr", "S - (c1*T + c2*T^2)", "--seed", "0", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["stableValue"] == 3 and d["l0"] == 3
    code, out, err = run(capsys, "stable-value", "--p", "2", "--expr", "c13", "--l-max", "20")
    assert code == 0 and err == ""
    # v(S) = l never settles below l_max = 2
    code, out, err = run(capsys, "stable-value", "--p", "2", "--expr", "S", "--l-max", "2")
    assert (code, out, err) == (0, "NOT_STABILIZED\n", "")
    code, out, err = run(capsys, "stable-value", "--p", "2", "--expr", "S", "--l-max", "2", "--json")
    assert (code, out, err) == (
        0, '{"expr":"S","outcome":"NOT_STABILIZED","schemaVersion":1,"seed":0}\n', "")


BAD_RATIONALS = ["1/0", "abc", "", "x=3", "inf=3"]


@pytest.mark.parametrize("argv, token", [
    (["extend", "--field", "Qp(2)", "--poly", "x^(1/0)"], "'1/0'"),
    (["stable-value", "--p", "2", "--expr", "T^(1/0)"], "'1/0'"),
    (["graded", "--field", "Qp(2)", "--frobenius", "T^(1/0)"], "'1/0'"),
    (["graded", "--field", "FpPerf(2,t)", "--mul", "T^(1/2)", "T^(1/0)"], "'1/0'"),
    (["field", "--field", "Qp(2)", "--valuate", "0^(1/2)"], "powers of t only"),
    (["graded", "--field", "Qp(3)", "--mul", "T", "T", "--choice", "1=2"], "wrong valuation"),
    (["graded", "--field", "Qp(3)", "--mul", "T", "T", "--choice", "1=3,1=6"], "'1' given twice"),
] + [(["field", "--field", "Qp(2)", "--choice", c], repr(c)) for c in BAD_RATIONALS]
  + [(["graded", "--field", "Qp(3)", "--mul", "T", "T", "--choice", c + "=3"],
      repr(c.split("=")[0])) for c in BAD_RATIONALS])
def test_bad_rational_literal_is_parse_error(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and token in err


@pytest.mark.parametrize("argv", [
    ["extend", "--field", "Qp(2)", "--poly", "x^{e}"],
    ["extend", "--field", "Fq(2,t)", "--poly", "x + t^(-{e})"],
    ["field", "--field", "FpPerf(2,t)", "--valuate", "t^({e}/1)"],
    ["field", "--field", "Qp(2)", "--valuate", "2^-{e}"],
    ["graded", "--field", "Qp(2)", "--frobenius", "T^{e}"],
    ["stable-value", "--p", "2", "--expr", "T^-{e}"],
    ["stable-value", "--p", "2", "--expr", "S^{e}"],
])
def test_exponent_above_the_cap_is_parse_error(capsys, argv):
    # only cap + 1 is tried: the check runs before any arithmetic
    code, out, err = run(capsys, *[a.format(e=MAX_EXPONENT + 1) for a in argv])
    assert (code, out) == (2, "")
    assert f"exceeds {MAX_EXPONENT}" in err


@pytest.mark.parametrize("poly, code", [
    ("((x+1)^10)^1000", 2), ("(x^2)^501", 2), ("(x^2)^500+2", 0)])
def test_power_degree_above_the_cap_is_parse_error(capsys, poly, code):
    import time
    start = time.perf_counter()
    got, out, err = run(capsys, "extend", "--field", "Qp(2)", "--poly", poly)
    assert time.perf_counter() - start < 5.0
    assert got == code, err
    if code:
        assert out == "" and f"exceeds {MAX_EXPONENT}" in err


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    import argparse
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def spy(self, *args, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
    first = ["extend", "--field", "Qp(2)", "--poly", "x^2-2", "--json"]
    want = run(capsys, *first)
    assert want[0] == 0
    for argv, code in [
            (["extend", "--field", "Qp(2)"], 2),
            (["frobnicate"], 2),
            (["extend", "--help"], 0),
            (["extend", "--field", "Qp(4)", "--poly", "x^2-2"], 2),
            (["extend", "--field", "Qp(2)", "--poly", "x^2-2", "--limit-probes", "-1"], 3)]:
        assert run(capsys, *argv)[0] == code, argv
    assert run(capsys, *first) == want
    assert len(built) <= 1


def test_closed_pipe_is_a_clean_exit():
    # a reader that stops at once (``| head -c 0``): exit 0, nothing on stderr
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mlvkit
    env = dict(os.environ, PYTHONPATH=str(Path(mlvkit.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "mlvkit.cli", "extend", "--field", "Qp(2)",
                             "--poly", "x^2-2", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_long_sums_fold_without_recursion(capsys):
    code, out, _ = run(capsys, "field", "--field", "Qp(2)", "--valuate",
                       "+".join(["1"] * 601), "--json")
    assert code == 0
    assert json.loads(out)["valuate"] == {"element": "601", "value": "0"}
    code, out, _ = run(capsys, "stable-value", "--p", "2", "--expr", "+".join(["S"] * 601),
                       "--seed", "0", "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["stableValue"], d["l0"]) == (1, 1)
    K = QpField(2)
    g = parse_poly("+".join(f"x^{k}" for k in range(500, 0, -1)) + "+1", K)
    assert g.degree == 500 and all(K.eq(c, K.one()) for c in g.coeffs)


@pytest.mark.parametrize("poly", ["(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x"],
                         ids=["parentheses", "signs"])
def test_deep_nesting_parses_or_is_a_parse_error(capsys, poly):
    code, _, err = run(capsys, "extend", "--field", "Qp(2)", "--poly=" + poly)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert f"nested deeper than {MAX_NESTING}" in err


@pytest.mark.parametrize("argv, factor", [
    (["extend", "--field", "Qp(3)", "--poly", "(x^2+1)^2"], "x^2 + 1"),
    (["tame", "--field", "Qp(3)", "--suite", "(x^2+1)^2"], "x^2 + 1"),
    # over a perfect base an inseparable g is a p-th power: (x + t^(1/2))^2
    (["extend", "--field", "FpPerf(2,t)", "--poly", "x^2+t"], "x^2 + t"),
    (["tame", "--field", "FpPerf(2,t)", "--suite", "x^2+t"], "x^2 + t"),
    (["tame", "--field", "FpPerf(3,t)", "--suite", "x^3-t"], "x^3 + 2*t"),
    # (x + t^2)(x + t^(1/2))^2
    (["extend", "--field", "FpPerf(2,t)", "--poly", "x^3+t^2*x^2+t*x+t^3"], "x^2 + t"),
    # (x - 1)^2 (x + 1)
    (["extend", "--field", "Qp(2)", "--poly", "x^3-x^2-x+1"], "x - 1"),
    (["kahler", "--field", "Qp(2)", "--poly", "(x^2+x+1)^2"], "x^2 + x + 1"),
    # x^2 over F_2(t) has g' = 0, but its t-derivative test finds x twice
    (["extend", "--field", "Fq(2,t)", "--poly", "x^2"], "x^2"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_squarefree_g_is_refused(capsys, argv, factor):
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *json_flag)
        assert (code, out) == (3, "")
        assert err.startswith("error [NOT_SQUAREFREE]")
        assert f"every irreducible factor of {factor} divides it" in err


@pytest.mark.parametrize("argv", [
    # irreducible and inseparable over the imperfect F_p(t): g' = 0 is allowed
    ["extend", "--field", "Fq(3,t)", "--poly", "x^3-t"],
    ["tame", "--field", "Fq(2,t)", "--suite", "x^2+t"],
    # reducible but squarefree: two branches, and sum e*f*d = n
    ["extend", "--field", "Qp(2)", "--poly", "x^2-1"],
])
def test_squarefree_g_is_still_answered(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["schemaVersion"] == SCHEMA_VERSION
