"""Spans around annokit's public functions, recorded from outside the
program.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and, for some functions, adds
the work it did to a counter. It patches every name a caller looks up:
a class attribute for methods, and for module functions both the
defining module and any module that imported the function by name. A
sqlite trace callback on each store connection counts statements and
commits. Spans stay in memory until ``metrics`` turns them into calls
and self time per span name; self time is a span's duration minus the
duration of the wrapped spans directly inside it.
"""

import time
from collections import Counter

from annokit import (cli, concepts, documents, graphs, inline, sections,
                     store, tree)


def _count(name, measure):
    def counter(counters, args, result):
        counters[name] += measure(args, result)
    return counter


def _query(counters, args, result):
    counters["tree.query.visited"] += args[0].last_visited
    counters["tree.query.hits"] += len(result)


def _annotations(counters, args, result):
    counters["documents.annotations.walked"] += len(args[0].index)
    counters["documents.annotations.returned"] += len(result)


def _checkpoint(counters, args, result):
    counters["store.checkpoint.rows"] += result
    counters["store.checkpoint.indexed"] += len(args[1].index)


def _graphs_built(counters, args, result):
    counters["graphs.graphs_built"] += len(result)
    counters["graphs.skipped_dependencies"] += sum(
        g.skipped_dependencies for g in result)


# (span name, owner, attribute, other modules that import it by name,
#  counter)
TRACED = (
    ("tree.insert", tree.IntervalTree, "insert", (), None),
    ("tree.query", tree.IntervalTree, "query", (), _query),
    ("documents.annotations", documents.Document, "annotations", (),
     _annotations),
    ("documents.add_annotation", documents.Document, "add_annotation", (),
     None),
    ("documents.annotations_within", documents.Document,
     "annotations_within", (), None),
    ("documents.tokenize", documents, "tokenize", (), None),
    ("documents.split_sentences", documents, "split_sentences", (), None),
    ("documents.import_external_annotations", documents,
     "import_external_annotations", (), None),
    ("documents.export_annotations", documents, "export_annotations", (),
     None),
    ("store.checkpoint", store.CdmStore, "checkpoint", (), _checkpoint),
    ("store.unmarshal", store.CdmStore, "unmarshal_document", (),
     _count("store.unmarshal.annotations", lambda a, r: len(r.index))),
    ("store.marshal", store.CdmStore, "marshal_document", (),
     _count("store.marshal.rows", lambda a, r: sum(r.values()))),
    ("store.create_instance", store.CdmStore, "create_instance", (), None),
    ("sections.detect_sections", sections, "detect_sections", (), None),
    ("sections.match_templates", sections, "match_templates", (), None),
    ("concepts.tag_sentence", concepts, "tag_sentence", (), None),
    ("concepts.annotate_concepts", concepts, "annotate_concepts", (), None),
    ("concepts.annotate_tuis", concepts, "annotate_tuis", (), None),
    ("concepts.annotate_sp_pos", concepts, "annotate_sp_pos", (), None),
    ("concepts.load_lexicon", concepts, "load_lexicon", (), None),
    ("graphs.build_sentence_graphs", graphs, "build_sentence_graphs", (),
     _graphs_built),
    ("graphs.persist_graph", graphs, "persist_graph", (), None),
    ("graphs.load_graph", graphs, "load_graph", (), None),
    ("graphs.mine_frequent_subgraphs", graphs, "mine_frequent_subgraphs",
     (), _count("graphs.patterns", lambda a, r: len(r))),
    ("graphs.canonical_code", graphs, "canonical_code", (), None),
    ("graphs.find_subgraph_occurrences", graphs,
     "find_subgraph_occurrences", (),
     _count("graphs.embeddings", lambda a, r: len(r))),
    ("graphs.persist_mining_results", graphs, "persist_mining_results", (),
     None),
    ("inline.split_records", inline, "split_records", (cli,),
     _count("inline.records", lambda a, r: len(r))),
    ("cli.main", cli, "main", (), None),
)


# counters reported as they are; the rest only feed the ratios below
COUNTERS = ("tree.query.visited", "documents.annotations.walked",
            "store.checkpoint.rows", "store.unmarshal.annotations",
            "store.marshal.rows", "store.statements", "store.commits",
            "graphs.graphs_built", "graphs.skipped_dependencies",
            "graphs.patterns", "graphs.embeddings", "inline.records")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patches = []

    def _wrap(self, name, original, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counter(counters, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra=()):
        """Patch every function of TRACED, plus ``extra`` entries of the
        same shape."""
        self.traced = TRACED + tuple(extra)
        for name, owner, attr, importers, counter in self.traced:
            wrapper = self._wrap(name, getattr(owner, attr), counter)
            for target in (owner,) + importers:
                self._patch(target, attr, wrapper)
        original_init = store.CdmStore.__init__
        counters = self.counters

        def on_statement(sql):
            counters["store.statements"] += 1
            if sql.strip().upper() == "COMMIT":
                counters["store.commits"] += 1

        def init(store_self, target):
            original_init(store_self, target)
            store_self.connection.set_trace_callback(on_statement)

        self._patch(store.CdmStore, "__init__", init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Per-layer metrics: ``<span>.calls`` and ``<span>.self_s`` for
        every traced function, the counters, and derived ratios."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, children):
            calls[name] += 1
            self_s[name] += end - start - inner
        out = {}
        for name, *_ in self.traced:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counters
        out.update((name, c[name]) for name in COUNTERS)

        def ratio(num, den):
            return num / den if den else 0.0

        out["tree.query.visited_per_hit"] = ratio(
            c["tree.query.visited"], c["tree.query.hits"])
        out["documents.annotations.returned_per_walked"] = ratio(
            c["documents.annotations.returned"],
            c["documents.annotations.walked"])
        out["store.checkpoint.rows_per_annotation"] = ratio(
            c["store.checkpoint.rows"], c["store.checkpoint.indexed"])
        out["graphs.patterns_per_candidate"] = ratio(
            c["graphs.patterns"], calls["graphs.canonical_code"])
        return out
