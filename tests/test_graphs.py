"""Graph construction, matching, mining, and persistence tests.

Matching is checked against a permutation brute force and mining against
a direct enumeration of every connected sub-pattern, so the two
implementations share no code paths with the module under test beyond
the canonical encoder (which gets its own invariance tests).
"""

import io
import itertools
import os
import random
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annokit import graphs as graph_module
from annokit.documents import Document
from annokit.errors import (
    DanglingReferenceError,
    ImportFormatError,
    StoreError,
    ValidationError,
)
from annokit.graphs import (
    LabeledGraph,
    build_dependency_graph,
    build_sentence_graphs,
    canonical_code,
    find_subgraph_occurrences,
    load_graph,
    load_graphs,
    mine_frequent_subgraphs,
    persist_graph,
    persist_graphs,
    persist_mining_results,
    read_graph_file,
    write_graph_file,
)
from annokit.intervals import Interval
from annokit.store import CdmStore, canonical_json


def dep_attrs(head, dependent):
    return {
        "head_start": str(head[0]), "head_end": str(head[1]),
        "dependent_start": str(dependent[0]),
        "dependent_end": str(dependent[1]),
    }


def example_doc():
    """'cells express CD30' with tokens, two deps, two concepts."""
    doc = Document("note", "cells express CD30")
    sent = doc.annotate(Interval(0, 18), "sentence")
    for a, b in ((0, 5), (6, 13), (14, 18)):
        doc.annotate(Interval(a, b), "token",
                     value=doc.content[a:b])
    deps = [
        doc.annotate(Interval(6, 13), "dependency", value="nsubj",
                     attributes=dep_attrs((6, 13), (0, 5))),
        doc.annotate(Interval(6, 13), "dependency", value="dobj",
                     attributes=dep_attrs((6, 13), (14, 18))),
    ]
    concepts = [
        doc.annotate(Interval(0, 5), "CUI", value="C_a"),
        doc.annotate(Interval(14, 18), "CUI", value="C_b"),
    ]
    return doc, sent, deps, concepts


class TestBuild:
    def test_worked_example(self):
        doc, sent, deps, concepts = example_doc()
        g = build_dependency_graph(doc, sent, deps, concepts)
        assert g.nodes == ["C_a", "express", "C_b"]
        assert sorted(g.edges) == [(1, 0, "nsubj"), (1, 2, "dobj")]
        assert g.graph_type == "dependency"
        assert g.name == "note:0-18"
        assert g.skipped_dependencies == 0

    def test_merge_collapses_internal_edge(self):
        doc = Document("d", "large cell lymphoma")
        sent = doc.annotate(Interval(0, 19), "sentence")
        spans = [(0, 5), (6, 10), (11, 19)]
        for a, b in spans:
            doc.annotate(Interval(a, b), "token")
        deps = [
            doc.annotate(Interval(6, 10), "dependency", value="amod",
                         attributes=dep_attrs((6, 10), (0, 5))),
            doc.annotate(Interval(11, 19), "dependency", value="compound",
                         attributes=dep_attrs((11, 19), (6, 10))),
        ]
        concepts = [doc.annotate(Interval(0, 10), "CUI", value="C1")]
        g = build_dependency_graph(doc, sent, deps, concepts)
        assert g.nodes == ["C1", "lymphoma"]
        # amod sits inside the concept span and collapses away
        assert g.edges == [(1, 0, "compound")]
        assert g.skipped_dependencies == 0

    def test_duplicate_edges_dropped(self):
        doc = Document("d", "a b")
        sent = doc.annotate(Interval(0, 3), "sentence")
        doc.annotate(Interval(0, 1), "token")
        doc.annotate(Interval(2, 3), "token")
        dep = {"type_name": "dependency", "value": "dep"}
        deps = [
            doc.annotate(Interval(0, 1), "dependency", value="dep",
                         attributes=dep_attrs((0, 1), (2, 3))),
            doc.annotate(Interval(0, 1), "dependency", value="dep",
                         attributes=dep_attrs((0, 1), (2, 3))),
        ]
        del dep
        g = build_dependency_graph(doc, sent, deps, [])
        assert g.edges == [(0, 1, "dep")]

    def test_out_of_sentence_reference_is_counted(self):
        doc = Document("d", "a b. c d")
        s1 = doc.annotate(Interval(0, 4), "sentence")
        for a, b in ((0, 1), (2, 3), (3, 4), (5, 6), (7, 8)):
            doc.annotate(Interval(a, b), "token")
        deps = [
            doc.annotate(Interval(0, 1), "dependency", value="x",
                         attributes=dep_attrs((0, 1), (7, 8))),
            doc.annotate(Interval(0, 1), "dependency", value="y",
                         attributes=dep_attrs((0, 1), (2, 3))),
        ]
        g = build_dependency_graph(doc, s1, deps, [])
        assert g.skipped_dependencies == 1
        assert (0, 1, "y") in g.edges

    def test_malformed_dep_attrs_are_counted(self):
        doc = Document("d", "a b")
        sent = doc.annotate(Interval(0, 3), "sentence")
        doc.annotate(Interval(0, 1), "token")
        doc.annotate(Interval(2, 3), "token")
        deps = [doc.annotate(Interval(0, 1), "dependency", value="z",
                             attributes={"head_start": "zero"})]
        g = build_dependency_graph(doc, sent, deps, [])
        assert g.edges == []
        assert g.skipped_dependencies == 1

    def test_concept_without_tokens_gets_no_node(self):
        doc, sent, deps, concepts = example_doc()
        concepts.append(doc.annotate(Interval(5, 6), "CUI", value="C_gap"))
        g = build_dependency_graph(doc, sent, deps, concepts)
        assert "C_gap" not in g.nodes

    def test_token_in_two_concepts_joins_first_by_span(self):
        doc = Document("d", "aa bb cc")
        sent = doc.annotate(Interval(0, 8), "sentence")
        for a, b in ((0, 2), (3, 5), (6, 8)):
            doc.annotate(Interval(a, b), "token")
        concepts = [
            doc.annotate(Interval(3, 8), "CUI", value="LATE"),
            doc.annotate(Interval(0, 5), "CUI", value="EARLY"),
        ]
        deps = [doc.annotate(Interval(0, 2), "dependency", value="r",
                             attributes=dep_attrs((0, 2), (3, 5)))]
        g = build_dependency_graph(doc, sent, deps, concepts)
        # bb is inside both; EARLY starts first so it claims the token
        assert g.nodes == ["EARLY", "LATE"]
        assert g.edges == [(0, 1, "r")] or g.edges == []
        assert g.edges == []  # aa and bb share the EARLY node

    def test_lowercased_token_labels(self):
        doc = Document("d", "CD30 Positive")
        sent = doc.annotate(Interval(0, 13), "sentence")
        doc.annotate(Interval(0, 4), "token")
        doc.annotate(Interval(5, 13), "token")
        g = build_dependency_graph(doc, sent, [], [])
        assert g.nodes == ["cd30", "positive"]

    def test_build_sentence_graphs(self):
        doc = Document("d", "a b. c d.")
        doc.annotate(Interval(0, 4), "sentence")
        doc.annotate(Interval(5, 9), "sentence")
        for a, b in ((0, 1), (2, 3), (5, 6), (7, 8)):
            doc.annotate(Interval(a, b), "token")
        graphs = build_sentence_graphs(doc)
        assert len(graphs) == 2
        assert [g.name for g in graphs] == ["d:0-4", "d:5-9"]

    def test_graph_validation(self):
        with pytest.raises(ValidationError):
            LabeledGraph(nodes=["a", "b"], edges=[(0, 0, "loop")])
        with pytest.raises(ValidationError):
            LabeledGraph(nodes=["a"], edges=[(0, 1, "oob")])


def test_build_time_grows_linearly_with_sentence_length():
    # One long unpunctuated line is one sentence; every "high fever" is
    # one concept over two tokens, as the tagger keeps it. Linear
    # building takes about 8 times as long for 8 times the tokens, a scan
    # of the sentence per concept about 64 times. The two sizes take
    # turns, so that a slow spell of the machine slows both.
    def sentence(n):
        doc = Document("d", "high fever " * (n // 2))
        sent = doc.annotate(Interval(0, len(doc.content)), "sentence")
        concepts = []
        for at in range(0, len(doc.content), 11):
            doc.annotate(Interval(at, at + 4), "token")
            doc.annotate(Interval(at + 5, at + 10), "token")
            concepts.append(doc.annotate(Interval(at, at + 10), "CUI",
                                         value="C2"))
        return doc, sent, [], concepts

    cases = {n: sentence(n) for n in (2_000, 16_000)}
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(3):
        for n, args in cases.items():
            started = time.perf_counter()
            graph = build_dependency_graph(*args)
            best[n] = min(best[n], time.perf_counter() - started)
            assert graph.nodes == ["C2"] * (n // 2)
    assert best[16_000] < 24 * best[2_000]


def brute_force_embeddings(host, pattern):
    """Oracle: try every injective node tuple directly."""
    k = len(pattern.nodes)
    host_edges = set(host.edges)
    found = []
    for assign in itertools.permutations(range(len(host.nodes)), k):
        if any(host.nodes[assign[i]] != pattern.nodes[i]
               for i in range(k)):
            continue
        if all((assign[s], assign[d], l) in host_edges
               for s, d, l in pattern.edges):
            found.append(dict(enumerate(assign)))
    return found


def random_graph(rng, max_n=6, labels="abc", edge_labels="xy"):
    n = rng.randint(1, max_n)
    nodes = [rng.choice(labels) for _ in range(n)]
    possible = [(s, d) for s in range(n) for d in range(n) if s != d]
    edges = []
    for s, d in possible:
        for l in edge_labels:
            if rng.random() < 0.25:
                edges.append((s, d, l))
    return LabeledGraph(nodes=nodes, edges=edges)


@st.composite
def labeled_graphs(draw, max_nodes, max_edges, labels, edge_labels):
    """Small graphs over the given alphabets. Edges may repeat, and
    nothing keeps the graph connected."""
    n = draw(st.integers(1, max_nodes))
    nodes = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    edges = draw(st.lists(
        st.builds(lambda pair, label: (*pair, label),
                  st.sampled_from(pairs), st.sampled_from(edge_labels)),
        max_size=max_edges)) if pairs else []
    return LabeledGraph(nodes=nodes, edges=edges)


# Labels that hold every separator of a canonical code.
_SEPARATOR_LABELS = ["a", "\\", ",#", ";>:"]
_SEPARATOR_EDGE_LABELS = ["x", ":", ";0>1"]


class TestMatching:
    def test_worked_single_edge(self):
        doc, sent, deps, concepts = example_doc()
        g = build_dependency_graph(doc, sent, deps, concepts)
        pattern = LabeledGraph(nodes=["express", "C_a"],
                               edges=[(0, 1, "nsubj")])
        assert find_subgraph_occurrences(g, pattern) == [(1, 0)]

    def test_matches_equal_brute_force(self):
        rng = random.Random(4401)
        for _ in range(60):
            host = random_graph(rng, max_n=6)
            pattern = random_graph(rng, max_n=3)
            got = sorted(find_subgraph_occurrences(host, pattern))
            want = sorted(tuple(m.values())
                          for m in brute_force_embeddings(host, pattern))
            assert got == want

    def test_mappings_are_injective_and_label_preserving(self):
        rng = random.Random(911)
        for _ in range(30):
            host = random_graph(rng, max_n=5)
            pattern = random_graph(rng, max_n=3)
            for m in find_subgraph_occurrences(host, pattern):
                assert len(set(m)) == len(m)
                for p_node, h_node in enumerate(m):
                    assert pattern.nodes[p_node] == host.nodes[h_node]

    def test_pattern_larger_than_host(self):
        host = LabeledGraph(nodes=["a"])
        pattern = LabeledGraph(nodes=["a", "a"])
        assert find_subgraph_occurrences(host, pattern) == []

    def test_extra_host_edges_allowed(self):
        host = LabeledGraph(nodes=["a", "b"],
                            edges=[(0, 1, "x"), (1, 0, "y")])
        pattern = LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")])
        assert len(find_subgraph_occurrences(host, pattern)) == 1

    @settings(max_examples=150, deadline=None)
    @given(host=labeled_graphs(6, 10, "ab", "xy"),
           pattern=labeled_graphs(4, 4, "ab", "xy"))
    @example(host=LabeledGraph(nodes=["a", "b", "c", "b"],
                               edges=[(0, 2, "x"), (1, 2, "x"),
                                      (3, 2, "x"), (0, 1, "y")]),
             pattern=LabeledGraph(nodes=["a", "b", "c"],
                                  edges=[(0, 2, "x"), (1, 2, "x")]))
    @example(host=LabeledGraph(nodes=["a", "b", "b", "a"],
                               edges=[(0, 1, "y"), (3, 2, "y")]),
             pattern=LabeledGraph(nodes=["a", "b", "b"],
                                  edges=[(0, 1, "y")]))
    def test_occurrences_equal_brute_force_in_order(self, host, pattern):
        """Also disconnected patterns, and patterns whose node i has
        edges only to later nodes (node 1 in the first example)."""
        got = [dict(enumerate(m))
               for m in find_subgraph_occurrences(host, pattern)]
        assert got == brute_force_embeddings(host, pattern)


class TestCanonicalCode:
    def test_invariant_under_relabeling(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_graph(rng, max_n=5)
            code = canonical_code(g)
            perm = list(range(len(g.nodes)))
            rng.shuffle(perm)
            position = {old: new for new, old in enumerate(perm)}
            h = LabeledGraph(
                nodes=[g.nodes[old] for old in perm],
                edges=[(position[s], position[d], l)
                       for s, d, l in g.edges])
            assert canonical_code(h) == code

    def test_direction_matters(self):
        fwd = LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")])
        rev = LabeledGraph(nodes=["a", "b"], edges=[(1, 0, "x")])
        assert canonical_code(fwd) != canonical_code(rev)

    def test_labels_matter(self):
        g1 = LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")])
        g2 = LabeledGraph(nodes=["a", "c"], edges=[(0, 1, "x")])
        assert canonical_code(g1) != canonical_code(g2)

    def test_node_limit(self):
        g = LabeledGraph(nodes=list("abcdefghi"))
        with pytest.raises(ValidationError):
            canonical_code(g)

    @pytest.mark.parametrize("one, two", [
        (LabeledGraph(nodes=["a,b"]), LabeledGraph(nodes=["a", "b"])),
        (LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x;0>1:y")]),
         LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x"), (0, 1, "y")])),
        (LabeledGraph(nodes=[]), LabeledGraph(nodes=[""])),
    ], ids=["node-comma", "edge-separators", "no-nodes-vs-empty-label"])
    def test_separators_in_labels_do_not_collide(self, one, two):
        assert canonical_code(one) != canonical_code(two)

    def test_plain_labels_keep_their_code(self):
        g = LabeledGraph(nodes=["b", "a", "c"],
                         edges=[(0, 1, "x"), (2, 1, "y")])
        assert canonical_code(g) == "a,b,c#1>0:x;2>0:y"


def weakly_connected(node_ids, edges):
    if len(node_ids) == 1:
        return True
    neighbors = {n: set() for n in node_ids}
    for s, d, _ in edges:
        neighbors[s].add(d)
        neighbors[d].add(s)
    seen = set()
    stack = [next(iter(node_ids))]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(neighbors[n] - seen)
    return len(seen) == len(node_ids)


def enumerate_sub_patterns(g, max_nodes):
    """Oracle: every connected (subset, edge subset) pattern, as codes."""
    codes = {}
    for size in range(1, min(max_nodes, len(g.nodes)) + 1):
        for subset in itertools.combinations(range(len(g.nodes)), size):
            inner = sorted({e for e in g.edges
                            if e[0] in subset and e[1] in subset})
            for k in range(len(inner) + 1):
                for chosen in itertools.combinations(inner, k):
                    if not weakly_connected(set(subset), chosen):
                        continue
                    remap = {v: i for i, v in enumerate(subset)}
                    pat = LabeledGraph(
                        nodes=[g.nodes[v] for v in subset],
                        edges=[(remap[s], remap[d], l)
                               for s, d, l in chosen])
                    codes.setdefault(canonical_code(pat), pat)
    return codes


def oracle_mine(graphs, min_support, max_nodes):
    per_graph = [enumerate_sub_patterns(g, max_nodes) for g in graphs]
    union = {}
    for codes in per_graph:
        union.update(codes)
    out = {}
    for code in union:
        members = [n for n, codes in enumerate(per_graph) if code in codes]
        if len(members) >= min_support:
            out[code] = (len(members), members)
    return out


def triple_holders(graphs):
    """(source label, edge label, target label) -> positions of the graphs
    that hold it."""
    holders = {}
    for n, g in enumerate(graphs):
        for s, d, l in g.edges:
            holders.setdefault((g.nodes[s], l, g.nodes[d]), set()).add(n)
    return holders


@st.composite
def sparse_triple_corpora(draw):
    """2-6 graphs over alphabets wide enough that most triples occur in
    few of them, and a min_support up to the number of graphs."""
    graphs = draw(st.lists(labeled_graphs(5, 6, "abcd", "xyz"),
                           min_size=2, max_size=6))
    return graphs, draw(st.integers(1, len(graphs)))


class TestMining:
    def test_shared_edge_worked_example(self):
        g1 = LabeledGraph(nodes=["cells", "express", "cd30"],
                          edges=[(1, 0, "nsubj"), (1, 2, "dobj")])
        g2 = LabeledGraph(nodes=["cells", "express", "antigen"],
                          edges=[(1, 0, "nsubj"), (1, 2, "dobj")])
        results = mine_frequent_subgraphs([g1, g2], min_support=2,
                                          max_nodes=2)
        by_code = {canonical_code(r.pattern): r for r in results}
        shared = LabeledGraph(nodes=["express", "cells"],
                              edges=[(0, 1, "nsubj")])
        hit = by_code[canonical_code(shared)]
        assert hit.support == 2
        assert hit.graph_ids == [0, 1]
        singles = [r for r in results if len(r.pattern.nodes) == 1]
        assert {r.pattern.nodes[0] for r in singles} == {"cells", "express"}

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(880)
        for round_no in range(8):
            graphs = [random_graph(rng, max_n=5) for _ in range(4)]
            for min_support in (1, 2):
                got = mine_frequent_subgraphs(graphs, min_support,
                                              max_nodes=3)
                got_map = {canonical_code(r.pattern):
                           (r.support, r.graph_ids) for r in got}
                assert got_map == oracle_mine(graphs, min_support, 3), \
                    f"round {round_no} support {min_support}"

    def test_output_order_and_uniqueness(self):
        rng = random.Random(12)
        graphs = [random_graph(rng, max_n=5) for _ in range(3)]
        results = mine_frequent_subgraphs(graphs, 1, max_nodes=3)
        keys = [(len(r.pattern.nodes), canonical_code(r.pattern))
                for r in results]
        assert keys == sorted(keys)
        assert len(set(k[1] for k in keys)) == len(keys)

    def test_isolated_nodes_are_patterns(self):
        g1 = LabeledGraph(nodes=["a", "b"])
        g2 = LabeledGraph(nodes=["a"])
        results = mine_frequent_subgraphs([g1, g2], 2, max_nodes=3)
        assert len(results) == 1
        assert results[0].pattern.nodes == ["a"]
        assert results[0].support == 2

    def test_anti_monotone_against_single_labels(self):
        rng = random.Random(5150)
        graphs = [random_graph(rng, max_n=5) for _ in range(4)]
        results = mine_frequent_subgraphs(graphs, 1, max_nodes=3)
        label_support = {r.pattern.nodes[0]: r.support
                         for r in results if len(r.pattern.nodes) == 1}
        for r in results:
            for label in r.pattern.nodes:
                assert r.support <= label_support[label]

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            mine_frequent_subgraphs([], 0)
        with pytest.raises(ValidationError):
            mine_frequent_subgraphs([], 1, max_nodes=0)
        with pytest.raises(ValidationError):
            mine_frequent_subgraphs([], 1, max_nodes=99)
        assert mine_frequent_subgraphs([], 1) == []

    def test_closing_edge_from_the_newest_node(self):
        """In a 2-cycle the closing edge 1>0 starts on the newest node,
        yet joins two nodes the pattern already has."""
        graphs = [LabeledGraph(nodes=["a", "b"],
                               edges=[(0, 1, "x"), (1, 0, "y")])
                  for _ in range(2)]
        results = mine_frequent_subgraphs(graphs, min_support=2,
                                          max_nodes=3)
        assert [(canonical_code(r.pattern), r.support, r.graph_ids)
                for r in results] == [
            ("a#", 2, [0, 1]), ("b#", 2, [0, 1]),
            ("a,b#0>1:x", 2, [0, 1]), ("a,b#0>1:x;1>0:y", 2, [0, 1]),
            ("a,b#1>0:y", 2, [0, 1])]

    def test_member_ids_use_graph_ids_when_set(self):
        g1 = LabeledGraph(nodes=["a"], id=41)
        g2 = LabeledGraph(nodes=["a"], id=17)
        results = mine_frequent_subgraphs([g1, g2], 2, max_nodes=1)
        assert results[0].graph_ids == [41, 17]

    @settings(max_examples=100, deadline=None)
    @given(graphs=st.lists(labeled_graphs(4, 5, _SEPARATOR_LABELS,
                                          _SEPARATOR_EDGE_LABELS),
                           min_size=1, max_size=4),
           min_support=st.integers(1, 3))
    def test_equals_oracle_with_separator_labels(self, graphs, min_support):
        got = {canonical_code(r.pattern): (r.support, r.graph_ids)
               for r in mine_frequent_subgraphs(graphs, min_support,
                                                max_nodes=3)}
        assert got == oracle_mine(graphs, min_support, 3)

    @settings(max_examples=60, deadline=None)
    @given(graphs=st.lists(labeled_graphs(5, 6, "ab", "xy"),
                           min_size=1, max_size=5),
           min_support=st.integers(1, 3), descending=st.booleans())
    def test_mined_occurrences_equal_one_match_per_graph(
            self, graphs, min_support, descending):
        """The stored embeddings are the same, in the same order, as one
        find_subgraph_occurrences call per (pattern, supporting graph).
        Descending ids keep graph_ids order apart from id order."""
        with CdmStore(":memory:") as store:
            store.init_schema()
            persist_graphs(store, graphs[::-1] if descending else graphs)
            results = mine_frequent_subgraphs(graphs, min_support,
                                              max_nodes=3)
            sig_ids = persist_mining_results(store, results)
            stored = store.connection.execute(
                "SELECT graph_id, sig_subgraph_id, node_mapping"
                " FROM lg_sigsub ORDER BY rowid").fetchall()
        by_id = {g.id: g for g in graphs}
        assert stored == [
            (gid, sig_id,
             canonical_json({str(k): str(v) for k, v in enumerate(m)}))
            for sig_id, r in zip(sig_ids, results) for gid in r.graph_ids
            for m in find_subgraph_occurrences(by_id[gid], r.pattern)]

    @settings(max_examples=60, deadline=None)
    @given(graphs=st.lists(labeled_graphs(5, 6, "ab", "xy"),
                           min_size=1, max_size=4),
           min_support=st.integers(1, 3))
    def test_embeddings_equal_brute_force_in_order(self, graphs,
                                                   min_support):
        """Each graph's embedding list, against the permutation oracle
        rather than find_subgraph_occurrences, which shares mining's
        extension step."""
        for r in mine_frequent_subgraphs(graphs, min_support, max_nodes=3):
            assert len(r.embeddings) == len(r.graph_ids)
            for graph_id, embeddings in zip(r.graph_ids, r.embeddings):
                assert [dict(enumerate(e)) for e in embeddings] == \
                    brute_force_embeddings(graphs[graph_id], r.pattern)

    @settings(max_examples=100, deadline=None)
    @given(case=sparse_triple_corpora())
    def test_equals_oracle_when_most_triples_are_infrequent(self, case):
        graphs, min_support = case
        results = mine_frequent_subgraphs(graphs, min_support, max_nodes=3)
        assert {canonical_code(r.pattern): (r.support, r.graph_ids)
                for r in results} == oracle_mine(graphs, min_support, 3)
        for r in results:
            for graph_id, embeddings in zip(r.graph_ids, r.embeddings):
                assert [dict(enumerate(e)) for e in embeddings] == \
                    brute_force_embeddings(graphs[graph_id], r.pattern)

    def test_infrequent_triples_reach_no_canonical_code(self, monkeypatch):
        """A candidate holding a triple of fewer than min_support graphs
        cannot be frequent, so it is never built and canonicalised."""
        rng = random.Random(2001)
        graphs = [random_graph(rng, max_n=5, labels="abc",
                               edge_labels="xyz") for _ in range(6)]
        min_support = 3
        holders = triple_holders(graphs)
        rare = {t for t, held in holders.items() if len(held) < min_support}
        assert rare and len(rare) < len(holders)
        seen = []

        def recording(graph):
            seen.append(graph)
            return canonical_code(graph)

        monkeypatch.setattr(graph_module, "canonical_code", recording)
        results = mine_frequent_subgraphs(graphs, min_support, max_nodes=3)
        assert any(g.edges for g in seen)
        assert not [g for g in seen for s, d, l in g.edges
                    if (g.nodes[s], l, g.nodes[d]) in rare]
        assert {canonical_code(r.pattern): (r.support, r.graph_ids)
                for r in results} == oracle_mine(graphs, min_support, 3)

    def test_labels_below_support_are_never_stepped(self, monkeypatch):
        """Single nodes seed from the graphs that hold each label, so a
        label held by fewer than min_support graphs costs no step, and
        the frequent ones are seeded without one either."""
        rng = random.Random(2003)
        graphs = [random_graph(rng, max_n=6, labels="aabbcdefgh",
                               edge_labels="xy") for _ in range(10)]
        min_support = 3
        holding = {}
        for n, g in enumerate(graphs):
            for label in set(g.nodes):
                holding.setdefault(label, set()).add(n)
        rare = {label for label, held in holding.items()
                if len(held) < min_support}
        assert rare and len(rare) < len(holding)
        calls = []
        step = graph_module._step

        def recording(host, embeddings, edge, label=None):
            calls.append((embeddings, edge, label))
            return step(host, embeddings, edge, label)

        monkeypatch.setattr(graph_module, "_step", recording)
        results = mine_frequent_subgraphs(graphs, min_support, max_nodes=3)
        assert calls
        assert not [c for c in calls if c[2] in rare]
        assert not [c for c in calls if c[1] is None]
        assert {canonical_code(r.pattern): (r.support, r.graph_ids)
                for r in results} == oracle_mine(graphs, min_support, 3)


def stored_graphs(store):
    """(id, name, type) of every stored graph, in id order."""
    return store.connection.execute(
        "SELECT id, name, type FROM graphs ORDER BY id").fetchall()


class TestPersistence:
    def setup_method(self):
        self.stores = []

    def teardown_method(self):
        for store in self.stores:
            store.close()

    def make_store(self):
        store = CdmStore(":memory:")
        store.init_schema()
        self.stores.append(store)
        return store

    def test_round_trip_with_isolated_node(self):
        store = self.make_store()
        g = LabeledGraph(nodes=["a", "b", "c"], edges=[(0, 1, "x")],
                         name="g1", graph_type="dependency")
        gid = persist_graph(store, g)
        assert g.id == gid
        back = load_graph(store, gid)
        assert back.name == "g1"
        assert back.graph_type == "dependency"
        assert len(back.nodes) == 3
        assert canonical_code(back) == canonical_code(g)

    def test_two_edges_two_rows(self):
        store = self.make_store()
        g = LabeledGraph(nodes=["a", "b", "c"],
                         edges=[(0, 1, "x"), (1, 2, "y")], name="g")
        gid = persist_graph(store, g)
        rows = store.connection.execute(
            "SELECT COUNT(*) FROM linkage_graph WHERE graph_id = ?",
            (gid,)).fetchone()
        assert rows[0] == 2

    def test_load_unknown_graph(self):
        store = self.make_store()
        with pytest.raises(DanglingReferenceError):
            load_graph(store, 404)

    def test_mining_results_round_trip(self):
        store = self.make_store()
        g1 = LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")], name="g1")
        g2 = LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")], name="g2")
        persist_graph(store, g1)
        persist_graph(store, g2)
        results = mine_frequent_subgraphs([g1, g2], 2, max_nodes=2)
        sig_ids = persist_mining_results(store, results)
        assert len(sig_ids) == len(results)
        stored = store.connection.execute(
            "SELECT subgraph_graph_id, support FROM sig_subgraph"
            " ORDER BY id").fetchall()
        assert [s for _, s in stored] == [r.support for r in results]
        for sub_id, _ in stored:
            back = load_graph(store, sub_id)
            assert back.graph_type == "sig_subgraph"
        n_rows = store.connection.execute(
            "SELECT COUNT(*) FROM lg_sigsub").fetchone()[0]
        assert n_rows == sum(len(find_subgraph_occurrences(host, r.pattern))
                             for r in results for host in (g1, g2))

    def test_mapping_with_dangling_graph_id(self):
        store = self.make_store()
        results = mine_frequent_subgraphs(
            [LabeledGraph(nodes=["a"], id=999)], 1, max_nodes=1)
        with pytest.raises(DanglingReferenceError):
            persist_mining_results(store, results)
        assert stored_graphs(store) == []

    def test_mining_results_all_or_nothing(self):
        store = self.make_store()
        host = LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")],
                            name="g")
        persist_graph(store, host)
        results = mine_frequent_subgraphs([host], 1, max_nodes=2)
        with store.connection:
            store.connection.execute(
                "CREATE TRIGGER refuse BEFORE INSERT ON lg_sigsub"
                " BEGIN SELECT RAISE(ABORT, 'refused'); END")
        with pytest.raises(StoreError, match="refused"):
            persist_mining_results(store, results)
        assert stored_graphs(store) == [(host.id, "g", "")]
        assert store.connection.execute(
            "SELECT COUNT(*) FROM sig_subgraph").fetchone() == (0,)

    def test_failed_rerun_keeps_earlier_results(self):
        store = self.make_store()
        host = LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")],
                            name="g")
        persist_graph(store, host)
        results = mine_frequent_subgraphs([host], 1, max_nodes=2)
        persist_mining_results(store, results)
        with store.connection:
            store.connection.execute(
                "CREATE TRIGGER refuse BEFORE INSERT ON lg_sigsub"
                " BEGIN SELECT RAISE(ABORT, 'refused'); END")
        stored = list(store.connection.iterdump())
        with pytest.raises(StoreError, match="refused"):
            persist_mining_results(store, results)
        assert list(store.connection.iterdump()) == stored

    def test_load_graphs_equals_load_graph(self):
        store = self.make_store()
        for graph in (
                LabeledGraph(nodes=["a", "b", "c"], edges=[(0, 1, "x")],
                             name="isolated node", graph_type="dependency"),
                LabeledGraph(nodes=[], name="no nodes",
                             graph_type="dependency"),
                LabeledGraph(nodes=["p"], name="other type",
                             graph_type="pattern"),
                LabeledGraph(nodes=["d", "e", "f"],
                             edges=[(2, 0, "y"), (0, 1, "z"), (1, 0, "z")],
                             name="three edges", graph_type="dependency")):
            persist_graph(store, graph)

        def fields(g):
            return g.id, g.name, g.graph_type, g.nodes, g.edges

        loaded = load_graphs(store, "dependency")
        assert [fields(g) for g in loaded] == [
            fields(load_graph(store, gid))
            for gid, _, _ in store.graphs_of_type("dependency")]
        assert [g.name for g in loaded] == ["isolated node", "no nodes",
                                            "three edges"]
        assert load_graphs(store, "unknown") == []

    def test_load_graphs_with_interleaved_linkage_rows(self):
        """Linkage rows of two graphs that alternate in rowid order, with a
        graph of another type stored between them, load per graph."""
        store = self.make_store()
        first, other, second = (
            LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")], name="g1",
                         graph_type="dependency"),
            LabeledGraph(nodes=["p", "q"], edges=[(1, 0, "z")], name="p1",
                         graph_type="pattern"),
            LabeledGraph(nodes=["c", "d"], edges=[(1, 0, "y")], name="g2",
                         graph_type="dependency"))
        persist_graphs(store, [first, other, second])
        with store.connection:
            store.connection.executemany(
                "INSERT INTO linkage_graph (graph_id, node1, node2,"
                " edge_label, node1_label, node2_label)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                [(second.id, 1, 2, "w", "d", "e"),
                 (first.id, 2, 0, "v", "f", "a"),
                 (other.id, 0, 2, "u", "p", "r"),
                 (second.id, 5, None, None, "g", None),
                 (first.id, 1, 3, "t", "b", "h")])

        def fields(g):
            return g.id, g.name, g.graph_type, g.nodes, g.edges

        loaded = load_graphs(store, "dependency")
        assert [fields(g) for g in loaded] == [
            fields(load_graph(store, gid)) for gid in (first.id, second.id)]
        assert loaded[0].nodes == ["a", "b", "f", "h"]
        assert loaded[1].edges == [(1, 0, "y"), (1, 2, "w")]

    def test_node_mappings_are_canonical_json_at_any_size(self):
        """An embedding is stored as canonical_json of its str(k): str(v)
        map, whose keys sort as strings: "10" before "2"."""
        store = self.make_store()
        host = LabeledGraph(nodes=["a"] * 40, name="host")
        persist_graph(store, host)
        sizes = (1, 2, 10, 11, 12)
        embeddings = {size: tuple(random.Random(size).sample(range(40), size))
                      for size in sizes}
        store.create_mining_results(
            [(f"p{size}", "sig_subgraph",
              [(n, None, None, "a", None) for n in range(size)], 1, {},
              [(host.id, [embeddings[size]])]) for size in sizes])
        stored = [row[0] for row in store.connection.execute(
            "SELECT node_mapping FROM lg_sigsub ORDER BY rowid")]
        assert stored == [canonical_json({str(k): str(v) for k, v in
                                          enumerate(embeddings[size])})
                          for size in sizes]
        assert stored[-1].index('"10":') < stored[-1].index('"2":')

    def test_persist_graphs_all_or_nothing(self):
        store = self.make_store()
        with store.connection:
            store.connection.execute(
                "CREATE TRIGGER refuse BEFORE INSERT ON graphs"
                " WHEN (SELECT COUNT(*) FROM graphs) >= 2"
                " BEGIN SELECT RAISE(ABORT, 'refused'); END")
        batch = [LabeledGraph(nodes=["a"], name=f"g{n}") for n in range(3)]
        with pytest.raises(StoreError, match="refused"):
            persist_graphs(store, batch)
        assert stored_graphs(store) == []
        assert [g.id for g in batch] == [None, None, None]
        with store.connection:
            store.connection.execute("DROP TRIGGER refuse")
        ids = persist_graphs(store, batch)
        assert ids == [g.id for g in batch]
        assert stored_graphs(store) == [(gid, f"g{n}", "")
                                        for n, gid in enumerate(ids)]

    def test_each_mapped_graph_id_checked_once(self):
        store = self.make_store()
        hosts = [LabeledGraph(nodes=["a", "a", "a"], name=f"g{n}")
                 for n in range(2)]
        persist_graphs(store, hosts)
        results = mine_frequent_subgraphs(hosts, 1, max_nodes=1)
        assert [len(found) for found in results[0].embeddings] == [3, 3]
        statements = []
        store.connection.set_trace_callback(statements.append)
        persist_mining_results(store, results)
        store.connection.set_trace_callback(None)
        checks = [sql for sql in statements
                  if sql.startswith('SELECT 1 FROM "graphs"')]
        assert len(checks) == 2
        assert store.connection.execute(
            "SELECT COUNT(*) FROM lg_sigsub").fetchone() == (6,)


_GRAPH_TEXT = st.text(st.characters(codec="utf-8")
                      | st.sampled_from(";=\\\t\n\r"))


class TestInterchange:
    def test_round_trip(self):
        graphs = [
            LabeledGraph(nodes=["a", "b"], edges=[(0, 1, "x")],
                         name="first", graph_type="dependency", id=7),
            LabeledGraph(nodes=["c"], name="second", graph_type="pattern"),
        ]
        buf = io.StringIO()
        assert write_graph_file(graphs, buf) == 2
        back = read_graph_file(io.StringIO(buf.getvalue()))
        assert len(back) == 2
        assert back[0].id == 7 and back[1].id is None
        assert back[0].nodes == ["a", "b"]
        assert back[0].edges == [(0, 1, "x")]
        assert back[1].nodes == ["c"]
        assert [g.name for g in back] == ["first", "second"]

    def test_file_paths(self, tmp_path):
        path = tmp_path / "graphs.tsv"
        graphs = [LabeledGraph(nodes=["a"], name="solo")]
        write_graph_file(graphs, str(path))
        back = read_graph_file(str(path))
        assert back[0].nodes == ["a"]

    def test_malformed_line(self):
        text = "graph\t\tg\tdep\nn\t0\ta\nq\tbogus\n"
        with pytest.raises(ImportFormatError) as err:
            read_graph_file(io.StringIO(text))
        assert err.value.line_numbers == (3,)

    @given(name=_GRAPH_TEXT, graph_type=_GRAPH_TEXT,
           labels=st.lists(_GRAPH_TEXT, min_size=2, max_size=3),
           edge_label=_GRAPH_TEXT)
    @example(name="g\t1", graph_type="t\r", labels=["x\ty", "a\nb"],
             edge_label="\\")
    def test_any_text_round_trips(self, name, graph_type, labels,
                                  edge_label):
        graph = LabeledGraph(nodes=labels, edges=[(0, 1, edge_label)],
                             name=name, graph_type=graph_type)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "graphs.tsv")
            write_graph_file([graph], path)
            [back] = read_graph_file(path)
        assert (back.name, back.graph_type, back.nodes, back.edges) == (
            graph.name, graph.graph_type, graph.nodes, graph.edges)

    def test_unknown_escape_rejected(self):
        text = "graph\t\tg\tdep\nn\t0\ta\nn\t1\ta\\qb\n"
        with pytest.raises(ImportFormatError) as err:
            read_graph_file(io.StringIO(text))
        assert err.value.line_numbers == (3,)

    def test_repeated_node_rejected(self):
        text = "graph\t\tg\tt\nn\t0\tA\nn\t0\tB\n"
        with pytest.raises(ImportFormatError) as err:
            read_graph_file(io.StringIO(text))
        assert err.value.line_numbers == (3,)
        assert "line 3" in str(err.value)

    def test_non_dense_ids_rejected(self):
        text = "graph\t\tg\tdep\nn\t0\ta\nn\t2\tb\n"
        with pytest.raises(ImportFormatError):
            read_graph_file(io.StringIO(text))

    @pytest.mark.parametrize("after", ["", "graph\t\tg2\tt\n"],
                             ids=["at-end", "before-a-graph"])
    @pytest.mark.parametrize("body, line", [
        ("n\t0\tA\ne\t0\t5\tx\n", 3),
        ("e\t0\t1\tx\nn\t0\tA\nn\t1\tB\ne\t1\t1\ty\n", 5),
        ("n\t0\tA\nn\t2\tB\ne\t0\t2\tx\n", 1),
    ], ids=["edge-out-of-range", "self-loop", "non-dense-ids"])
    def test_a_bad_graph_is_blamed_on_its_own_line(self, body, line, after):
        text = "graph\t\tg1\tt\n" + body + after
        with pytest.raises(ImportFormatError) as err:
            read_graph_file(io.StringIO(text))
        assert err.value.line_numbers == (line,)
        assert str(err.value).startswith(f"graph file line {line}: ")
