import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from annokit.errors import DuplicateEntryError, NotFoundError
from annokit.intervals import AllenRelation, Interval, holds
from annokit.tree import IntervalTree


def canonical(entries):
    """(interval, payload) entries sorted by (start, end, payload)."""
    return sorted(entries, key=lambda e: (e[0].start, e[0].end, e[1]))


def oracle_query(entries, relation, b):
    """Linear reference: sort canonically, then filter by predicate."""
    return [e for e in canonical(entries) if holds(relation, e[0], b)]


def random_entries(rng, count, span=60):
    entries = []
    for n in range(count):
        s = rng.randrange(0, span)
        e = rng.randrange(s, span + 1)
        entries.append((Interval(s, e), n))
    return entries


def build(entries):
    tree = IntervalTree()
    for iv, payload in entries:
        tree.insert(iv, payload)
    return tree


def test_empty_tree():
    tree = IntervalTree()
    assert len(tree) == 0
    assert tree.node_count == 0
    assert list(tree) == []
    assert tree.query(AllenRelation.DURING, Interval(0, 100)) == []
    tree.audit()


def test_insert_and_find():
    tree = IntervalTree()
    tree.insert(Interval(2, 6), "a")
    tree.insert(Interval(4, 9), "b")
    assert len(tree) == 2
    assert tree.node_count == 2
    assert Interval(2, 6) in tree
    assert Interval(2, 7) not in tree
    assert tree.find(Interval(4, 9)) == ["b"]
    assert tree.find(Interval(0, 1)) == []


def test_equal_intervals_share_a_node():
    tree = IntervalTree()
    tree.insert(Interval(3, 8), 2)
    tree.insert(Interval(3, 8), 3)
    tree.insert(Interval(3, 8), 1)
    assert len(tree) == 3
    assert tree.node_count == 1
    # payloads come back in payload order, not insertion order
    assert tree.find(Interval(3, 8)) == [1, 2, 3]


def test_duplicate_entry_rejected():
    tree = IntervalTree()
    tree.insert(Interval(3, 8), "x")
    with pytest.raises(DuplicateEntryError):
        tree.insert(Interval(3, 8), "x")
    # same payload under a different interval is a different entry
    tree.insert(Interval(3, 9), "x")
    assert len(tree) == 2


def test_in_order_ties_append_as_one_node():
    tree = IntervalTree()
    tree.insert(Interval(0, 2), 0)
    for payload in (1, 2, 3):
        tree.insert(Interval(3, 8), payload)
    assert tree.node_count == 2
    assert tree.audit() == {"nodes": 2, "entries": 4}
    assert tree.find(Interval(3, 8)) == [1, 2, 3]
    with pytest.raises(DuplicateEntryError):
        tree.insert(Interval(3, 8), 3)
    # a smaller payload at the last interval still goes in payload order
    tree.insert(Interval(3, 8), -1)
    tree.insert(Interval(3, 8), 4)
    assert tree.node_count == 2
    assert tree.audit() == {"nodes": 2, "entries": 6}
    assert tree.find(Interval(3, 8)) == [-1, 1, 2, 3, 4]


def test_remove_peels_payloads_then_node():
    tree = IntervalTree()
    tree.insert(Interval(1, 4), "a")
    tree.insert(Interval(1, 4), "b")
    tree.remove(Interval(1, 4), "a")
    assert len(tree) == 1
    assert tree.node_count == 1
    assert tree.find(Interval(1, 4)) == ["b"]
    tree.remove(Interval(1, 4), "b")
    assert len(tree) == 0
    assert tree.node_count == 0
    assert Interval(1, 4) not in tree


def test_remove_missing_raises():
    tree = IntervalTree()
    tree.insert(Interval(1, 4), "a")
    with pytest.raises(NotFoundError):
        tree.remove(Interval(2, 4), "a")
    with pytest.raises(NotFoundError):
        tree.remove(Interval(1, 4), "zzz")


def test_iteration_is_canonical_with_payload_ties():
    tree = IntervalTree()
    tree.insert(Interval(5, 9), "late-start")
    tree.insert(Interval(1, 7), "second")
    tree.insert(Interval(1, 3), "short")
    tree.insert(Interval(1, 7), "first")
    assert list(tree) == [
        (Interval(1, 3), "short"),
        (Interval(1, 7), "first"),
        (Interval(1, 7), "second"),
        (Interval(5, 9), "late-start"),
    ]


def test_audit_after_random_churn():
    rng = random.Random(41)
    tree = IntervalTree()
    alive = []
    serial = 0
    for _ in range(1500):
        if alive and rng.random() < 0.45:
            iv, payload = alive.pop(rng.randrange(len(alive)))
            tree.remove(iv, payload)
        else:
            s = rng.randrange(0, 50)
            e = rng.randrange(s, 51)
            iv = Interval(s, e)
            tree.insert(iv, serial)
            alive.append((iv, serial))
            serial += 1
        if serial % 97 == 0:
            tree.audit()
    stats = tree.audit()
    assert stats["entries"] == len(alive)
    assert list(tree) == canonical(alive)


def test_rebuild_equality_after_churn():
    rng = random.Random(99)
    tree = IntervalTree()
    alive = []
    for n in range(800):
        s = rng.randrange(0, 30)
        e = rng.randrange(s, 31)
        tree.insert(Interval(s, e), n)
        alive.append((Interval(s, e), n))
    rng.shuffle(alive)
    survivors = alive[:300]
    for iv, payload in alive[300:]:
        tree.remove(iv, payload)
    rebuilt = build(sorted(survivors, key=lambda e: e[1]))
    assert list(tree) == list(rebuilt)
    tree.audit()
    rebuilt.audit()


def test_queries_match_oracle_all_relations():
    rng = random.Random(20260817)
    for trial in range(8):
        entries = random_entries(rng, 120, span=40)
        tree = build(entries)
        for _ in range(25):
            s = rng.randrange(0, 40)
            e = rng.randrange(s, 41)
            b = Interval(s, e)
            for rel in AllenRelation:
                got = tree.query(rel, b)
                want = oracle_query(entries, rel, b)
                assert got == want, f"{rel} on {b} (trial {trial})"


def test_queries_match_oracle_after_removals():
    rng = random.Random(5150)
    entries = random_entries(rng, 200, span=50)
    tree = build(entries)
    rng.shuffle(entries)
    dropped, kept = entries[:120], entries[120:]
    for iv, payload in dropped:
        tree.remove(iv, payload)
    for _ in range(30):
        s = rng.randrange(0, 50)
        e = rng.randrange(s, 51)
        b = Interval(s, e)
        for rel in AllenRelation:
            assert tree.query(rel, b) == oracle_query(kept, rel, b)


small_intervals = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
    lambda p: Interval(min(p), max(p)))


@settings(max_examples=300, deadline=None)
@given(st.lists(small_intervals, max_size=30), small_intervals,
       st.booleans())
def test_query_equals_the_predicate_filter(intervals, b, in_order):
    # query() keeps an entry on its bounds alone: this pins them exact
    # for every relation, null intervals and null probes included.
    entries = [(iv, n) for n, iv in enumerate(intervals)]
    tree = build(canonical(entries) if in_order else entries)
    tree.audit()
    for rel in AllenRelation:
        assert tree.query(rel, b) == oracle_query(entries, rel, b), rel


def test_starting_from_matches_oracle():
    rng = random.Random(6061)
    entries = random_entries(rng, 150, span=40)
    tree = build(entries)
    for position in range(-1, 42):
        want = [e for e in canonical(entries) if e[0].start >= position]
        assert list(tree.starting_from(position)) == want


def test_impossible_bounds_short_circuit():
    tree = build([(Interval(n, n + 2), n) for n in range(50)])
    assert tree.query(AllenRelation.BEFORE, Interval(0, 4)) == []
    assert tree.last_visited == 0


def test_pruning_skips_far_subtrees():
    # Sorted, non-overlapping spans: a BEFORE query anchored near the low
    # end should only ever look at the leftmost sliver of the tree.
    tree = IntervalTree()
    for n in range(4096):
        tree.insert(Interval(n * 10, n * 10 + 5), n)
    hits = tree.query(AllenRelation.BEFORE, Interval(40, 44))
    assert [p for _, p in hits] == [0, 1, 2, 3]
    assert tree.last_visited < tree.node_count * 0.1
    hits = tree.query(AllenRelation.AFTER, Interval(40900, 40935))
    assert [p for _, p in hits] == [4094, 4095]
    assert tree.last_visited < tree.node_count * 0.1


def test_visited_counter_resets_per_query():
    tree = build([(Interval(n, n + 1), n) for n in range(100)])
    tree.query(AllenRelation.AFTER, Interval(0, 0))
    first = tree.last_visited
    assert first > 0
    tree.query(AllenRelation.EQ, Interval(3, 4))
    assert tree.last_visited < first


def test_long_span_keeps_oracle_and_pins_cost():
    # Short spans plus one document-length span, as a section or a whole-
    # document annotation makes: the long span raises the length bound to
    # the document length. Relations whose start range the probe bounds
    # from below must still scan a small part of the index.
    rng = random.Random(3003)
    doc_len = 20_000
    entries = [(Interval(0, doc_len), "document")]
    for n in range(2_000):
        s = n * 10 + rng.randrange(0, 3)
        entries.append((Interval(s, s + rng.randrange(0, 8)), n))
    rng.shuffle(entries)
    tree = build(entries)
    tree.audit()
    late = [iv for iv, _ in entries if iv.start >= doc_len - 600][:20]
    late += [Interval(s, s + rng.randrange(0, 30))
             for s in rng.sample(range(doc_len - 600, doc_len - 30), 20)]
    anywhere = [Interval(s, s + rng.randrange(0, 50))
                for s in rng.sample(range(doc_len - 50), 20)]
    for b in late + anywhere + [Interval(0, doc_len), Interval(0, 0)]:
        for rel in AllenRelation:
            assert tree.query(rel, b) == oracle_query(entries, rel, b), (
                f"{rel} on {b}")
    pinned = (AllenRelation.EQ, AllenRelation.STARTS,
              AllenRelation.STARTED_BY, AllenRelation.FINISHES,
              AllenRelation.DURING, AllenRelation.OVERLAPPED_BY,
              AllenRelation.MET_BY, AllenRelation.AFTER)
    for b in late:
        for rel in pinned:
            tree.query(rel, b)
            assert tree.last_visited < 0.10 * tree.node_count, (
                f"{rel.name} on {b} visited {tree.last_visited}")


SPANS = st.builds(lambda s, n: Interval(s, s + n),
                  st.integers(0, 10), st.integers(0, 5))


class TreeMachine(RuleBasedStateMachine):
    """Drives an IntervalTree and a plain list of (interval, payload)
    entries through the same operations. Payloads are fresh integers,
    counting up from 0 or down from -1."""

    def __init__(self):
        super().__init__()
        self.tree = IntervalTree()
        self.entries = []
        self.serial = 0
        self.low = -1

    @rule(iv=SPANS)
    def insert(self, iv):
        self.tree.insert(iv, self.serial)
        self.entries.append((iv, self.serial))
        self.serial += 1

    @rule(data=st.data())
    def insert_after_last(self, data):
        """An interval after every stored one: the append path."""
        if self.entries:
            last = max(iv for iv, _ in self.entries)
            step = data.draw(st.integers(0, 3))
            start = last.start + step
            shortest = last.end + 1 if step == 0 else start
            iv = Interval(start, data.draw(st.integers(shortest,
                                                       shortest + 5)))
        else:
            iv = data.draw(SPANS)
        self.tree.insert(iv, self.serial)
        self.entries.append((iv, self.serial))
        assert list(self.tree)[-1] == (iv, self.serial)
        self.serial += 1

    @precondition(lambda self: self.entries)
    @rule(data=st.data())
    def insert_below(self, data):
        """A payload below every other at an occupied interval goes first
        in its run, whatever was inserted there before."""
        iv, _ = data.draw(st.sampled_from(self.entries))
        self.tree.insert(iv, self.low)
        self.entries.append((iv, self.low))
        assert self.tree.find(iv)[0] == self.low
        self.low -= 1

    @precondition(lambda self: self.entries)
    @rule(data=st.data())
    def insert_duplicate(self, data):
        iv, payload = data.draw(st.sampled_from(self.entries))
        with pytest.raises(DuplicateEntryError):
            self.tree.insert(iv, payload)

    @precondition(lambda self: self.entries)
    @rule(data=st.data())
    def remove(self, data):
        entry = data.draw(st.sampled_from(self.entries))
        self.tree.remove(*entry)
        self.entries.remove(entry)

    @rule(iv=SPANS)
    def remove_missing(self, iv):
        with pytest.raises(NotFoundError):
            self.tree.remove(iv, self.serial)

    @rule(iv=SPANS)
    def find(self, iv):
        want = [p for i, p in canonical(self.entries) if i == iv]
        assert self.tree.find(iv) == want
        assert (iv in self.tree) == bool(want)

    @rule(b=SPANS)
    def query(self, b):
        for rel in AllenRelation:
            assert self.tree.query(rel, b) == oracle_query(self.entries, rel, b)

    @rule(b=SPANS)
    def within(self, b):
        assert self.tree.within(b) == [
            (iv, p) for iv, p in canonical(self.entries)
            if b.start <= iv.start and iv.end <= b.end]

    @invariant()
    def matches_oracle(self):
        canon = canonical(self.entries)
        nodes = len({iv for iv, _ in canon})
        assert len(self.tree) == len(canon)
        assert self.tree.node_count == nodes
        assert list(self.tree) == canon
        assert self.tree.audit() == {"nodes": nodes, "entries": len(canon)}


TreeMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None)
TestTreeMachine = TreeMachine.TestCase
