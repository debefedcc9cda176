from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import invariants as inv
from cuspidal.invariants import (
    InvalidCuspData,
    characteristic_chain,
    characteristic_seq,
    delta_from_multiplicities,
    delta_from_puiseux,
    fibonacci,
    format_multiplicity,
    format_newton,
    genus_target,
    lct,
    multiplicity_sequence,
    newton_from_characteristic,
    newton_to_puiseux,
    normalize_runs,
    parse_multiplicity,
    parse_newton,
    puiseux_to_newton,
    self_intersection,
    validate_newton_pairs,
)


@st.composite
def newton_seqs(draw, max_pairs=3, max_entry=30):
    k = draw(st.integers(1, max_pairs))
    pairs = []
    p = draw(st.integers(2, max_entry - 1))
    q = draw(st.integers(p + 1, max_entry))
    if gcd(p, q) != 1:
        q = p + 1
    pairs.append((p, q))
    for _ in range(k - 1):
        p = draw(st.integers(2, max_entry))
        q = draw(st.integers(1, max_entry))
        while gcd(p, q) != 1:
            q += 1
        pairs.append((p, q))
    return tuple(pairs)


def test_newton_to_puiseux_examples():
    assert newton_to_puiseux(((2, 3), (2, 5), (2, 3))) == ((8, 12), (4, 10), (2, 3))
    assert newton_to_puiseux(((4, 5),)) == ((4, 5),)
    assert newton_to_puiseux(((2, 5), (3, 1))) == ((6, 15), (3, 1))
    assert delta_from_puiseux(((6, 15), (3, 1))) == 36


def test_puiseux_to_newton_examples():
    assert puiseux_to_newton(((8, 12), (4, 10), (2, 3))) == ((2, 3), (2, 5), (2, 3))
    assert puiseux_to_newton(((3, 22),)) == ((3, 22),)
    assert puiseux_to_newton(((6, 15), (3, 1))) == ((2, 5), (3, 1))


def test_characteristic_seq_examples():
    assert characteristic_seq(((2, 3), (2, 5), (2, 3))) == (8, (12, 22, 25))
    assert characteristic_seq(((2, 13),)) == (2, (13,))
    assert characteristic_seq(((2, 7), (2, 3), (2, 3))) == (8, (28, 34, 37))


def test_multiplicity_sequence_examples():
    assert multiplicity_sequence(((2, 3), (2, 5), (2, 3))) == ((8, 1), (4, 4), (2, 3))
    assert multiplicity_sequence(((2, 3),)) == ((2, 1),)
    assert multiplicity_sequence(((6, 7), (2, 13), (2, 3))) == ((24, 1), (4, 12), (2, 3))


def test_delta_from_puiseux_examples():
    assert delta_from_puiseux(((8, 12), (4, 10), (2, 3))) == 55
    assert delta_from_puiseux(((2, 13),)) == 6
    assert delta_from_puiseux(((3, 22),)) == 21


def test_delta_from_multiplicities_examples():
    assert delta_from_multiplicities(((8, 1), (4, 4), (2, 3))) == 55
    assert delta_from_multiplicities(((2, 1),)) == 1
    assert delta_from_multiplicities(((3, 7),)) == 21
    assert delta_from_multiplicities(()) == 0


def test_lct_examples():
    assert lct(((3, 22),)) == Fraction(25, 66)
    assert lct(((2, 13),)) == Fraction(15, 26)
    assert lct(((8, 12), (4, 10), (2, 3))) == Fraction(5, 24)


def test_self_intersection_examples():
    assert self_intersection(5, ((2, 13),)) == -1
    assert self_intersection(8, ((3, 22),)) == -2
    assert self_intersection(12, ((8, 12), (4, 10), (2, 3))) == 2


def test_fibonacci_values():
    assert fibonacci(5) == 5
    assert fibonacci(10) == 55
    assert fibonacci(-1) == 1
    assert fibonacci(0) == 0
    assert fibonacci(4) + fibonacci(8) == 3 * fibonacci(6)
    with pytest.raises(ValueError):
        fibonacci(-2)


def test_fibonacci_index_bound_is_where_the_genus_passes_4300_digits():
    # a family member that needs phi_j has degree >= phi_(j-2); past the
    # bound its genus could not be printed, so the bound refuses no
    # printable member
    top = inv.FIBONACCI_INDEX_BOUND
    phi = [0, 1]
    while len(phi) <= top:
        phi.append(phi[-1] + phi[-2])
    assert genus_target(phi[top - 2]) < 10**4300 <= genus_target(phi[top - 1])
    assert fibonacci(top) == phi[top]
    with pytest.raises(ValueError, match="past the bound"):
        fibonacci(top + 1)


def test_fibonacci_identities_exhaustive():
    # phi_{n-2} + phi_{n+2} = 3 phi_n and
    # phi_n^2 - phi_{n+r} phi_{n-r} = (-1)^{n-r} phi_r^2 for 1 <= r <= n <= 60
    for n in range(1, 61):
        assert fibonacci(n - 2) + fibonacci(n + 2) == 3 * fibonacci(n)
        for r in range(1, n + 1):
            lhs = fibonacci(n) ** 2 - fibonacci(n + r) * fibonacci(n - r)
            assert lhs == (-1) ** (n - r) * fibonacci(r) ** 2


def test_genus_target():
    assert genus_target(3) == 1
    assert genus_target(12) == 55
    assert genus_target(30) == 406


@settings(max_examples=500)
@given(newton_seqs())
def test_round_trip_newton_puiseux(pairs):
    assert puiseux_to_newton(newton_to_puiseux(pairs)) == pairs


@settings(max_examples=500)
@given(newton_seqs())
def test_round_trip_characteristic(pairs):
    a, b = characteristic_seq(pairs)
    assert newton_from_characteristic(a, b) == pairs


@settings(max_examples=1000)
@given(newton_seqs())
def test_delta_two_routes_agree(pairs):
    assert delta_from_puiseux(newton_to_puiseux(pairs)) == delta_from_multiplicities(
        multiplicity_sequence(pairs)
    )


def test_delta_two_routes_exhaustive_small():
    # every valid sequence with <= 2 pairs and entries <= 15, and every
    # 3-pair sequence with entries <= 8 (about 25k cases)
    firsts = [(p, q) for p in range(2, 15) for q in range(p + 1, 16) if gcd(p, q) == 1]
    others = [(p, q) for p in range(2, 16) for q in range(1, 16) if gcd(p, q) == 1]

    def check(seq):
        assert delta_from_puiseux(newton_to_puiseux(seq)) == delta_from_multiplicities(
            multiplicity_sequence(seq)
        )

    for f in firsts:
        check((f,))
        for o in others:
            check((f, o))
    firsts8 = [fq for fq in firsts if max(fq) <= 8]
    others8 = [pq for pq in others if max(pq) <= 8]
    for f in firsts8:
        for o1 in others8:
            for o2 in others8:
                check((f, o1, o2))


@settings(max_examples=500)
@given(newton_seqs())
def test_multiplicity_shape(pairs):
    seq = [value for value, count in multiplicity_sequence(pairs) for _ in range(count)]
    assert all(x >= y for x, y in zip(seq, seq[1:]))
    assert seq[0] == newton_to_puiseux(pairs)[0][0]


def test_validation_messages():
    with pytest.raises(InvalidCuspData, match="at least one pair"):
        validate_newton_pairs(())
    with pytest.raises(InvalidCuspData, match="p must be >= 2"):
        validate_newton_pairs(((1, 3),))
    with pytest.raises(InvalidCuspData, match="gcd"):
        validate_newton_pairs(((4, 6),))
    with pytest.raises(InvalidCuspData, match="q must exceed p"):
        validate_newton_pairs(((3, 2),))
    with pytest.raises(InvalidCuspData, match="q must be >= 1"):
        validate_newton_pairs(((2, 3), (2, 0)))


def test_characteristic_validation():
    # a | b_1 means b_1 is not characteristic
    with pytest.raises(InvalidCuspData, match="not characteristic"):
        newton_from_characteristic(4, (8, 9))
    with pytest.raises(InvalidCuspData, match="gcd"):
        newton_from_characteristic(4, (6,))
    # one case per rejection branch of the chain walk
    with pytest.raises(InvalidCuspData, match="a must be >= 2"):
        characteristic_chain(1, (3,))
    with pytest.raises(InvalidCuspData, match="at least one exponent"):
        characteristic_chain(4, ())
    with pytest.raises(InvalidCuspData, match="b_1 must exceed a"):
        characteristic_chain(4, (4, 5))
    with pytest.raises(InvalidCuspData, match="strictly increase"):
        characteristic_chain(6, (9, 8))
    with pytest.raises(InvalidCuspData, match="b_2=16 is not characteristic"):
        characteristic_chain(8, (12, 16, 17))
    with pytest.raises(InvalidCuspData, match=r"gcd\(a, b_1, ..., b_k\) = 2 != 1"):
        characteristic_chain(4, (6,))
    # e = 8, 4, 2, 1: p_j = 2, and Q_j = b_j - b_(j-1)
    assert characteristic_chain(8, (12, 22, 25)) == ((2, 2, 2), (12, 10, 3))
    assert newton_from_characteristic(8, (12, 22, 25)) == ((2, 3), (2, 5), (2, 3))


def test_runs_helpers():
    assert normalize_runs(((3, 2), (3, 1), (1, 4))) == ((3, 3),)


def test_multiplicity_text_format():
    runs = ((16, 1), (8, 4), (4, 3), (2, 3))
    assert format_multiplicity(runs) == "16,8_4,4_3,2_3"
    assert parse_multiplicity("16,8_4,4_3,2_3") == runs
    assert parse_multiplicity("16,8x4,4x3,2x3") == runs
    assert parse_multiplicity("1") == ()
    assert parse_multiplicity("smooth") == ()
    assert format_multiplicity(()) == "smooth"
    with pytest.raises(InvalidCuspData):
        parse_multiplicity("3,oops")


def test_newton_text_format():
    pairs = ((2, 3), (2, 5), (2, 3))
    assert format_newton(pairs) == "(2,3),(2,5),(2,3)"
    assert parse_newton("(2,3),(2,5),(2,3)") == pairs
    assert parse_newton(" (2, 3) , (2, 5) , (2, 3) ") == pairs
    with pytest.raises(InvalidCuspData):
        parse_newton("2,3")
    with pytest.raises(InvalidCuspData):
        parse_newton("(2,3,4)")
