import pytest

from cuspidal.existence import (
    BASE_REGISTRY,
    detect_lemma212,
    detect_reduction,
    resolve_existence,
    type1_construct,
)
from cuspidal.invariants import (
    delta_from_multiplicities,
    genus_target,
    parse_multiplicity,
)


def test_base_registry_contents():
    expected = {
        (2, ()),
        (3, ((2, 1),)),
        (4, ((2, 3),)),
        (4, ((3, 1),)),
        (5, ((4, 1),)),
        (6, ((3, 3), (2, 1))),
        (6, ((4, 1), (2, 4))),
    }
    assert BASE_REGISTRY == expected


def test_detect_reduction_examples():
    k, n, rest = detect_reduction(24, parse_multiplicity("16,8_4,4_3,2_3"))
    assert (k, n) == (2, 8)
    assert rest == parse_multiplicity("4_3,2_3")

    k, n, rest = detect_reduction(16, parse_multiplicity("8_3,4_3,2_3"))
    assert (k, n) == (1, 8)
    assert rest == parse_multiplicity("4_3,2_3")

    assert detect_reduction(19, parse_multiplicity("12,6_5,3_4")) is None
    assert detect_reduction(5, parse_multiplicity("4")) is None
    # no entry at all
    assert detect_reduction(5, ()) is None
    # n = 3 does not divide m_1 = 8, also at degree 9 = (8 // 3 + 1) * 3
    assert detect_reduction(12, ((8, 1), (3, 4))) is None
    assert detect_reduction(9, ((8, 1), (3, 4))) is None
    # a run of 3 entries n = 4, shorter than 2k = 4
    assert detect_reduction(12, ((8, 1), (4, 3), (2, 3))) is None
    # unnormalized runs are merge-normalized first: adjacent equal runs, a
    # value-1 run and a zero count, each in the pattern and the remainder
    rest = parse_multiplicity("4_3,2_3")
    assert detect_reduction(24, ((16, 1), (8, 1), (8, 3), (4, 3), (2, 3))) == (2, 8, rest)
    assert detect_reduction(24, ((16, 1), (8, 0), (8, 4), (4, 2), (4, 1), (2, 3))) == (2, 8, rest)
    assert detect_reduction(24, ((16, 1), (8, 4), (4, 3), (2, 3), (1, 5))) == (2, 8, rest)
    assert detect_reduction(16, ((8, 1), (8, 0), (8, 2), (4, 3), (2, 3))) == (1, 8, rest)
    # the run of n is whole only after merging: 8, then 8_3, is 8_4 = 2k
    assert detect_reduction(24, ((16, 1), (8, 1), (8, 3), (1, 2))) == (2, 8, ())


def test_detect_lemma212_examples():
    assert detect_lemma212(19, parse_multiplicity("12,6_5,3_4")) == (3, 2)
    assert detect_lemma212(28, parse_multiplicity("18,9_5,3_6")) == (3, 3)
    assert detect_lemma212(24, parse_multiplicity("16,8_4,4_3,2_3")) is None


def test_type1_construct():
    assert type1_construct(3, 2) == (19, parse_multiplicity("12,6_5,3_4"))
    assert type1_construct(3, 3) == (28, parse_multiplicity("18,9_5,3_6"))
    # s = 1 merges the two trailing runs
    assert type1_construct(3, 1) == (10, parse_multiplicity("6,3_7"))
    with pytest.raises(ValueError):
        type1_construct(2, 1)


def test_type1_detect_round_trip():
    for a in range(3, 7):
        for s in range(1, 5):
            degree, runs = type1_construct(a, s)
            assert detect_lemma212(degree, runs) == (a, s)


def test_detect_lemma212_reads_a_from_the_runs():
    # a = m_1 / m_2 + 1, so a huge a is matched without a search over a
    assert detect_lemma212(*type1_construct(10**9, 3)) == (10**9, 3)
    assert detect_lemma212(*type1_construct(3, 1)) == (3, 1)
    degree, runs = type1_construct(4, 2)
    for wrong in (degree - 1, degree + 1, 1, 0, -5):
        assert detect_lemma212(wrong, runs) is None


def test_resolve_chains():
    status, chain = resolve_existence(12, parse_multiplicity("8,4_4,2_3"))
    assert status == "proved-reduction"
    assert [(s.to_degree, s.to_mult) for s in chain[:-1]] == [(4, ((2, 3),))]
    assert chain[-1].rule == "base"

    status, chain = resolve_existence(24, parse_multiplicity("16,8_4,4_3,2_3"))
    assert status == "proved-reduction"
    assert [s.to_degree for s in chain[:-1]] == [8, 4]

    status, chain = resolve_existence(30, parse_multiplicity("20,10_4,8,2_8"))
    assert status == "proved-reduction"
    assert [s.to_degree for s in chain[:-1]] == [10, 2]
    assert chain[-2].to_mult == ()  # smooth conic

    status, _ = resolve_existence(4, parse_multiplicity("2_3"))
    assert status == "proved-base"

    status, chain = resolve_existence(19, parse_multiplicity("12,6_5,3_4"))
    assert status == "proved-lemma212"
    assert chain[0].rule == "graft(a=3,s=2)"

    status, chain = resolve_existence(9, parse_multiplicity("4_4,2_4"))
    assert status == "candidate"
    assert chain == ()


def test_resolve_rejects_degrees_below_one():
    for degree in (0, -3):
        with pytest.raises(ValueError, match=f"degree must be >= 1, got {degree}"):
            resolve_existence(degree, parse_multiplicity("2"))


def test_reduction_preserves_rationality():
    # if delta(m) is the genus at degree d, the stripped remainder has the
    # genus at the reduced degree -- checked on every listed curve
    from cuspidal.tables import FOUR_PAIR_ROWS, THREE_PAIR_ROWS
    from cuspidal.invariants import multiplicity_sequence

    checked = 0
    for degree, pairs, _ in THREE_PAIR_ROWS + FOUR_PAIR_ROWS:
        runs = multiplicity_sequence(pairs)
        assert delta_from_multiplicities(runs) == genus_target(degree)
        hit = detect_reduction(degree, runs)
        if hit is None:
            continue
        _, n, remainder = hit
        assert delta_from_multiplicities(remainder) == genus_target(n)
        checked += 1
    assert checked == 21  # 20 three-pair rows plus the four-pair curve
