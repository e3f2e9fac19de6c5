import copy
import pickle
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import assume, example, given, strategies as st

from mlvkit.values import (INFINITY, ValueGroup, is_inf, value_from_str,
                           value_str, vadd, vmul)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)
# finite values as the library makes them (ints) and as callers may pass them
finite_values = rationals | st.integers(-10 ** 6, 10 ** 6)


def test_infinity_order():
    assert INFINITY > Q(10 ** 9)
    assert not (INFINITY < Q(0))
    assert INFINITY == INFINITY
    assert INFINITY >= INFINITY
    assert min([INFINITY, Q(3), Q(1, 2)]) == Q(1, 2)


def test_infinity_absorbs_addition():
    assert vadd(INFINITY, Q(5)) is INFINITY
    assert vadd(Q(-3), INFINITY) is INFINITY
    assert Q(1, 2) + INFINITY is INFINITY


def test_vmul_zero_times_infinity():
    assert vmul(0, INFINITY) == Q(0)
    assert vmul(3, INFINITY) is INFINITY
    assert vmul(2, Q(1, 2)) == Q(1)


def test_infinity_stays_the_singleton():
    # is_inf is an identity test
    for clone in (copy.copy(INFINITY), copy.deepcopy(INFINITY),
                  pickle.loads(pickle.dumps(INFINITY))):
        assert clone is INFINITY and is_inf(clone)
    assert not is_inf(Q(10 ** 9))


def value_type(v):
    """The type a value must have: int when integral, else Fraction."""
    return int if Q(v).denominator == 1 else Q


@given(st.integers(0, 10 ** 6), finite_values)
@example(2, Q(1, 2))  # an integral product of a Fraction is an int
@example(3, Q(4))  # so is that of an integral Fraction
def test_vmul_equals_the_fraction_product(n, g):
    got = vmul(n, g)
    assert got == n * g and type(got) is value_type(n * g)


@given(finite_values, finite_values)
@example(Q(1, 2), Q(1, 2))  # an integral sum of two Fractions is an int
@example(Q(1, 3), 2)
def test_vadd_equals_the_fraction_sum(a, b):
    got = vadd(a, b)
    assert got == Q(a) + Q(b) and type(got) is value_type(Q(a) + Q(b))


@given(finite_values, st.integers(1, 10 ** 4), st.sampled_from([None, 2, 3, 5]))
def test_int_and_fraction_generators_give_equal_groups(x, gen, hull):
    G, H = ValueGroup(gen, hull), ValueGroup(Q(gen), hull)
    assert G == H and type(G.gen) is Q
    assert G.join([x]) == H.join([x]) and type(G.join([x]).gen) is Q
    assert G.contains(x) == H.contains(x)
    assert G.join([x]).contains(x)
    # 6*gen*Z has index 6, less the factor the hull absorbs
    index = {None: 6, 2: 3, 3: 2, 5: 6}[hull]
    for sub in (ValueGroup(6 * gen, hull), ValueGroup(Q(6 * gen), hull)):
        assert G.index_over(sub) == H.index_over(sub) == index


def test_int_generator_joins_exactly():
    # 2Z + (1/3)Z = (1/3)Z, not a float generator
    G = ValueGroup(2, None).join([Q(1, 3)])
    assert G.gen == Q(1, 3) and type(G.gen) is Q
    assert G.contains(Q(2, 3)) and not G.contains(Q(1, 6))
    assert ValueGroup(3, None).index_over(ValueGroup(6, None)) == 2
    assert ValueGroup(Q(3), None).index_over(ValueGroup(6, None)) == 2


def test_value_strings():
    assert value_str(Q(3, 2)) == "3/2"
    assert value_str(Q(2)) == "2"
    assert value_str(INFINITY) == "inf"
    assert value_from_str("inf") is INFINITY
    assert value_from_str("-3/4") == Q(-3, 4)


@given(rationals, rationals)
def test_frac_gcd_divides(a, b):
    # the generator of aZ + bZ, as the join of |a|Z with b
    assume(a != 0)
    g = ValueGroup(abs(a), None).join([b]).gen
    for x in (a, b):
        assert (x / g).denominator == 1
    assert gcd((a / g).numerator, (b / g).numerator) == 1


def test_group_membership():
    Z = ValueGroup(Q(1), None)
    assert Z.contains(Q(5)) and not Z.contains(Q(1, 2))
    H = ValueGroup(Q(1), 3)
    assert H.contains(Q(1, 9)) and not H.contains(Q(1, 2))
    half = ValueGroup(Q(1, 2), None)
    assert half.contains(Q(3, 2)) and not half.contains(Q(1, 3))


def test_hull_generator_normalized():
    # the p-part of a hull generator is irrelevant and is stripped
    assert ValueGroup(Q(3, 2), 3).gen == Q(1, 2)
    assert ValueGroup(Q(4), 2).gen == Q(1)


def test_ram_index():
    Z = ValueGroup(Q(1), None)
    assert Z.ram_index(Q(1, 2)) == 2
    assert Z.ram_index(Q(3)) == 1
    H2 = ValueGroup(Q(1), 2)
    assert H2.ram_index(Q(-1, 2)) == 1  # 2-parts are free
    assert H2.ram_index(Q(1, 6)) == 3


def test_join():
    Z = ValueGroup(Q(1), None)
    assert Z.join([Q(1, 2)]).gen == Q(1, 2)
    assert Z.join([Q(1, 2), Q(3, 2)]).gen == Q(1, 2)
    H = ValueGroup(Q(1), 2)
    J = H.join([Q(1, 3)])
    assert J.hull == 2 and J.gen == Q(1, 3)
    assert H.join([Q(1, 4)]).gen == Q(1)  # 2-power denominators absorbed
    # 0 lies in every group, so joining it changes nothing
    for G in (Z, H):
        assert G.join([Q(0)]) == G


def test_index_over():
    Z = ValueGroup(Q(1), None)
    half = ValueGroup(Q(1, 2), None)
    assert half.index_over(Z) == 2
    with pytest.raises(ValueError):
        Z.index_over(half)
    H = ValueGroup(Q(1), 3)
    Hm = ValueGroup(Q(1, 2), 3)
    assert Hm.index_over(H) == 2


def test_p_divisible():
    ok, wit = ValueGroup(Q(1), None).p_divisible(2)
    assert not ok and wit == Q(1)
    ok, wit = ValueGroup(Q(1), 3).p_divisible(3)
    assert ok and wit is None
    ok, wit = ValueGroup(Q(1, 2), None).p_divisible(2)
    assert not ok and wit == Q(1, 2)
    ok, _ = ValueGroup(Q(1), 3).p_divisible(2)
    assert not ok


def strip_p(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


@given(rationals, st.fractions(min_value=Q(1, 10 ** 4), max_value=10 ** 4,
                               max_denominator=10 ** 4),
       st.sampled_from([None, 2, 3, 5]))
@example(Q(0), Q(3, 2), None)  # 0 lies in gen*Z ...
@example(Q(0), Q(3, 2), 2)  # ... and in gen*Z[1/p]
def test_int_order_matches_fraction_division(v, gen, hull):
    G = ValueGroup(gen, hull)
    den = (v / G.gen).denominator
    if hull is not None:
        den = strip_p(den, hull)
    assert G.ram_index(v) == den
    assert G.contains(v) == (den == 1)
    assert G.ram_index(INFINITY) == 1 and not G.contains(INFINITY)
