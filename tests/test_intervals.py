import random

import pytest

from annokit.errors import ValidationError
from annokit.intervals import (
    BOUNDS,
    AllenRelation,
    Interval,
    holds,
    inverse,
    relate,
)


def test_valid_construction():
    iv = Interval(3, 7)
    assert iv.start == 3
    assert iv.end == 7
    assert len(iv) == 4
    assert not iv.is_null


def test_null_interval():
    iv = Interval(5, 5)
    assert iv.is_null
    assert len(iv) == 0


def test_rejects_negative_start():
    with pytest.raises(ValidationError):
        Interval(-1, 4)


def test_rejects_inverted_endpoints():
    with pytest.raises(ValidationError):
        Interval(6, 2)


def test_intervals_hashable_and_comparable():
    assert Interval(1, 3) == Interval(1, 3)
    assert len({Interval(1, 3), Interval(1, 3), Interval(1, 4)}) == 2
    assert Interval(1, 3) < Interval(1, 4) < Interval(2, 2)


def test_adjacent_spans_meet():
    assert relate(Interval(1, 3), Interval(3, 5)) == {AllenRelation.MEETS}


def test_separated_spans_before():
    assert relate(Interval(47, 83), Interval(87, 95)) == {AllenRelation.BEFORE}


def test_nested_span_during():
    assert relate(Interval(2, 4), Interval(1, 5)) == {AllenRelation.DURING}


def test_null_interval_satisfies_several_relations():
    # A null interval on j's start point both meets and starts j.
    got = relate(Interval(3, 3), Interval(3, 5))
    assert AllenRelation.MEETS in got
    assert AllenRelation.STARTS in got


def test_identical_null_intervals():
    got = relate(Interval(4, 4), Interval(4, 4))
    assert AllenRelation.EQ in got
    assert AllenRelation.MEETS in got
    assert AllenRelation.MET_BY in got


def test_each_relation_has_witness():
    # One concrete pair per tag, i relative to j = (4, 8).
    j = Interval(4, 8)
    witnesses = {
        AllenRelation.EQ: Interval(4, 8),
        AllenRelation.BEFORE: Interval(0, 2),
        AllenRelation.AFTER: Interval(10, 12),
        AllenRelation.MEETS: Interval(1, 4),
        AllenRelation.MET_BY: Interval(8, 11),
        AllenRelation.DURING: Interval(5, 7),
        AllenRelation.CONTAINS: Interval(3, 9),
        AllenRelation.STARTS: Interval(4, 6),
        AllenRelation.STARTED_BY: Interval(4, 10),
        AllenRelation.FINISHES: Interval(6, 8),
        AllenRelation.FINISHED_BY: Interval(2, 8),
        AllenRelation.OVERLAPS: Interval(2, 6),
        AllenRelation.OVERLAPPED_BY: Interval(6, 10),
    }
    assert set(witnesses) == set(AllenRelation)
    for rel, i in witnesses.items():
        assert relate(i, j) == {rel}, f"{i} vs {j} expected {rel}"


def test_non_null_pairs_get_exactly_one_relation():
    # Exhaustive over a small coordinate grid.
    spans = [
        Interval(s, e) for s in range(0, 6) for e in range(s + 1, 7)
    ]
    for i in spans:
        for j in spans:
            rels = relate(i, j)
            assert len(rels) == 1, f"{i} vs {j} gave {rels}"


def test_every_pair_gets_at_least_one_relation():
    # Null intervals included: the relation set is never empty.
    spans = [Interval(s, e) for s in range(0, 5) for e in range(s, 6)]
    for i in spans:
        for j in spans:
            assert relate(i, j), f"{i} vs {j} gave no relation"


def test_inverse_duality():
    rng = random.Random(20260817)
    for _ in range(500):
        s1 = rng.randrange(0, 40)
        e1 = rng.randrange(s1, 41)
        s2 = rng.randrange(0, 40)
        e2 = rng.randrange(s2, 41)
        i, j = Interval(s1, e1), Interval(s2, e2)
        assert relate(j, i) == {inverse(r) for r in relate(i, j)}


def test_holds_agrees_with_relate():
    rng = random.Random(7)
    for _ in range(300):
        s1 = rng.randrange(0, 20)
        e1 = rng.randrange(s1, 21)
        s2 = rng.randrange(0, 20)
        e2 = rng.randrange(s2, 21)
        i, j = Interval(s1, e1), Interval(s2, e2)
        full = relate(i, j)
        for rel in AllenRelation:
            assert holds(rel, i, j) == (rel in full)


def test_bounds_box_is_exactly_the_relation():
    small = [Interval(s, e) for s in range(7) for e in range(s, 7)]
    checked = 0
    for rel in AllenRelation:
        for j in small:
            s_lo, s_hi, e_lo, e_hi = BOUNDS[rel](j.start, j.end)
            for i in small:
                in_box = s_lo <= i.start <= s_hi and e_lo <= i.end <= e_hi
                assert in_box == holds(rel, i, j), (rel, i, j)
                checked += 1
    assert checked == 10_192


def test_inverse_is_involution():
    for rel in AllenRelation:
        assert inverse(inverse(rel)) == rel


def test_intervals_order_by_start_then_end():
    assert Interval(1, 9) < Interval(2, 3)
    assert Interval(2, 3) < Interval(2, 5)
    assert not Interval(2, 5) < Interval(2, 5)
    assert not Interval(4, 5) < Interval(3, 9)
    assert Interval(3, 9) < Interval(4, 5)


def test_relation_tag_parsing():
    assert AllenRelation.from_string("meets") == AllenRelation.MEETS
    assert AllenRelation.from_string("MET_BY") == AllenRelation.MET_BY
    assert AllenRelation.from_string("overlapped-by") == AllenRelation.OVERLAPPED_BY
    with pytest.raises(ValidationError):
        AllenRelation.from_string("near")
