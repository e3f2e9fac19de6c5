"""stable_value against the full-polynomial reference rows, and the fast paths.

``analyzer.stable_value`` keeps only the low term of each row; the oracle in
``stable_value_oracle`` expands every row over F[T].  Small sampling fields
make the c_i collide, so that low terms cancel, denominators vanish and rows
fail to stabilize, and the two must still agree exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from mlvkit import ffield
from mlvkit.analyzer import NOT_STABILIZED, stable_value
from mlvkit.errors import MlvError
from mlvkit.parsing import parse_expression
from stable_value_oracle import reference_stable_value


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except MlvError as e:
        return type(e).__name__, str(e)


def _cancelling(k: int) -> str:
    """S - (c1*T + ... + ck*T^k): the low terms of s cancel up to T^k."""
    return "S - (" + " + ".join(f"c{i}*T^{i}" for i in range(1, k + 1)) + ")"


_ATOMS = st.sampled_from(["S", "T", "c1", "c2", "c3", "1", "2"]) | \
    st.integers(1, 4).map(_cancelling)

_EXPRS = st.recursive(_ATOMS, lambda sub: st.one_of(
    st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
    st.tuples(sub, st.integers(-2, 3)).map(lambda t: f"({t[0]})^({t[1]})"),
), max_leaves=5)


@settings(max_examples=250, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), k=st.integers(1, 3), expr=_EXPRS,
       l_start=st.integers(0, 2), span=st.integers(1, 8), seed=st.integers(0, 999))
@example(p=2, k=1, expr="T/(S - c1*T)", l_start=1, span=3, seed=0)  # DenominatorVanishes
@example(p=2, k=1, expr=_cancelling(3), l_start=1, span=3, seed=0)  # NOT_STABILIZED
@example(p=2, k=2, expr="1/(S - c2*T)", l_start=1, span=4, seed=2)  # vanishes, then a retry
@example(p=5, k=1, expr="S - S", l_start=1, span=2, seed=0)  # ZeroInput
@example(p=2, k=2, expr="c1/(T - T)", l_start=1, span=2, seed=0)  # ParseError
def test_stable_value_matches_the_reference_rows(p, k, expr, l_start, span, seed):
    ast = parse_expression(expr)
    args = (p, ast)
    kwargs = dict(q=p ** k, l_start=l_start, l_max=l_start + span, seed=seed)
    assert _outcome(stable_value, *args, **kwargs) == \
        _outcome(reference_stable_value, *args, **kwargs)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("expr", [
    "S", _cancelling(2), "1/T", "(S + T)^7", "(S + T^2)/(S - c2*T)", "T/(S - c1*T)",
    # rows 1 and 2 are equal ratios of different pairs: a common factor whose
    # low coefficient is -c3 at l = 1 and c2 - c3 from l = 2 on
    "(S - c1*T - c3*T^2)*(S + T)/((S - c1*T - c3*T^2)*(1 + T))",
])
@pytest.mark.parametrize("p", [2, 3])
def test_stable_value_matches_the_reference_over_gf_p16(p, expr, seed):
    ast = parse_expression(expr)
    assert _outcome(stable_value, p, ast, seed=seed) == \
        _outcome(reference_stable_value, p, ast, seed=seed)


def test_modulus_is_searched_once_per_process(monkeypatch):
    calls = []
    is_irreducible = ffield.is_irreducible

    def counted(F, f):
        calls.append(f)
        return is_irreducible(F, f)

    monkeypatch.setattr(ffield, "is_irreducible", counted)
    ffield.find_irreducible.cache_clear()
    first = stable_value(2, parse_expression("S"), seed=1)
    assert calls
    calls.clear()
    second = stable_value(2, parse_expression("S"), seed=2)
    # the memoized modulus is the one tests/test_ffield.py pins
    assert ffield.find_irreducible(2, 16) == (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)
    assert calls == []
    assert (first.stable_value, second.stable_value) == (1, 1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("expr, value", [("S^1000", 1000), ("(S+T)^100", 100)])
def test_high_powers_answer_from_one_digit(p, expr, value):
    r = stable_value(p, parse_expression(expr), seed=0)
    assert r != NOT_STABILIZED
    assert (r.stable_value, r.l0) == (value, 1)
