"""The benchmark's workloads: inputs, the timed path, and output checks.

Each workload has ``setup`` (generate inputs from the seed and build any
store the timed path reads), ``round`` (one timed pass, driven as one
closed-loop client through ``annokit.cli.main`` or the library API) and
checks that compare every output with what the generator planted. All
files live under the directory the caller passes in.

Why each workload exists:

- ingest: the end-to-end path of ROADMAP aim 1. It runs every pipeline
  stage, including the concepts stage's query-per-sentence-then-insert
  pattern, and writes through many small checkpoints.
- bulk_import: record splitting and one marshal/commit per record, which
  are a negligible share of ingest.
- revisit: read-mostly sessions against a built store: tree rebuild on
  open, relation queries, full type walks and one-dirty checkpoints. No
  stage or mining work.
- mine: loading graphs from the store and frequent-subgraph mining. The
  tree, documents and stages are untouched.
"""

import contextlib
import gc
import io
import json
import math
import os
import random
import shutil
import sqlite3
import time

from annokit import cli, concepts, documents, graphs, sections
from annokit.documents import Document
from annokit.intervals import AllenRelation, holds
from annokit.store import CdmStore

import gen

SIZES = {
    "full": {
        "ingest": dict(notes=8, shortest=200, longest=2000, lexicon=800,
                       sentence_length=12),
        "bulk_import": dict(records=2000, words=300, tags=12),
        "revisit": dict(big_tokens=28500, notes=19, shortest=200,
                        longest=2000, lexicon=800, sentence_length=12,
                        min_sessions=100),
        "mine": dict(graphs=600, labels=6, edge_labels=2, support=240),
    },
    "smoke": {
        "ingest": dict(notes=3, shortest=100, longest=400, lexicon=100,
                       sentence_length=10),
        "bulk_import": dict(records=20, words=60, tags=5),
        "revisit": dict(big_tokens=1500, notes=4, shortest=100,
                        longest=400, lexicon=100, sentence_length=10,
                        min_sessions=10),
        "mine": dict(graphs=40, labels=4, edge_labels=2, support=16),
    },
}


class Checks:
    """Counts output checks; every failure is kept with a description."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_cli(argv):
    """One in-process ``annokit`` invocation, timed on its own; returns
    (exit code, stdout, seconds). It starts from a collected heap, as a
    fresh process would, so garbage of earlier invocations is not
    collected inside it. ``cli.main`` is looked up on every call so that
    a traced run sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def skip_disk_syncs():
    """Make every store connection run with ``PRAGMA synchronous=OFF``.

    On a shared virtual disk one sync takes from half a millisecond to
    several, depending on other tenants, and over minutes that swamped
    annokit's own cost in the commit-heavy workloads. Without syncs a
    commit still writes its rollback journal and the database file, so
    the timed path keeps every statement and commit annokit issues; only
    the wait for the disk is gone. The setting is reported in each
    run's context.
    """
    original = CdmStore.__init__

    def init(store, target):
        original(store, target)
        store.connection.execute("PRAGMA synchronous=OFF")

    CdmStore.__init__ = init


def _save(store, path):
    """Write a store built in memory to ``path`` with one backup, so that
    set-up time does not hang on one disk sync per commit."""
    with contextlib.closing(sqlite3.connect(path)) as disk:
        store.connection.backup(disk)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _fresh(path):
    if os.path.exists(path):
        os.remove(path)
    return path


def _write_lexicon(directory, lexicon):
    files = dict(lexicon_terms="terms.tsv", lexicon_tuis="tuis.tsv",
                 lexicon_pos="pos.tsv", function_words="function.txt")
    texts = dict(lexicon_terms=lexicon.term_file(),
                 lexicon_tuis=lexicon.tui_file(),
                 lexicon_pos=lexicon.pos_file(),
                 function_words=lexicon.function_word_file())
    return {key: _write(os.path.join(directory, name), texts[key])
            for key, name in files.items()}


def _write_config(path, settings):
    return _write(path, "".join(f"{k}={v}\n" for k, v in settings.items()))


def _annotation_rows(doc):
    return [(a.span.start, a.span.end, a.type_name, a.value,
             sorted(a.attributes.items()), a.provenance)
            for a in doc.annotations()]


def _type_counts(db_path):
    """{document name: {annotation type: count}} read straight from SQL."""
    with contextlib.closing(sqlite3.connect(db_path)) as conn:
        rows = conn.execute(
            "SELECT d.name, t.name, COUNT(*) FROM annotations a"
            " JOIN documents d ON a.document_id = d.id"
            " JOIN annotation_types t ON a.type_id = t.id"
            " GROUP BY d.name, t.name").fetchall()
    out = {}
    for doc, type_name, count in rows:
        out.setdefault(doc, {})[type_name] = count
    return out


class Ingest:
    """init, inline import of the notes into a corpus, one dependency
    import per note, ``run`` through all five stages at the default
    --jobs 1, then one document instance per note."""

    name = "ingest"
    STAGES = "tokenize,sentences,sections,concepts,graphs"
    TYPES = (("tokens", "token"), ("sentences", "sentence"),
             ("sections", "section"), ("templates", "template"),
             ("concepts", "CUI"), ("tui", "TUI"), ("sp_pos", "SP-POS"),
             ("dependencies", "dependency"))

    def __init__(self, size):
        self.size = size

    def setup(self, directory, seed):
        size = self.size
        rng = random.Random(seed)
        self.lexicon = gen.make_lexicon(rng, size["lexicon"])
        self.notes = gen.make_notes(rng, self.lexicon, size["notes"],
                                    size["shortest"], size["longest"],
                                    size["sentence_length"])
        self.sample = rng.sample(range(len(self.notes)), 2) \
            if len(self.notes) > 1 else [0]
        settings = _write_lexicon(directory, self.lexicon)
        settings["guideline"] = _write(
            os.path.join(directory, "guideline.xml"), gen.GUIDELINE_XML)
        self.files = list(settings.values())
        settings["store_path"] = os.path.join(directory, "store.db")
        self.config = _write_config(os.path.join(directory, "annokit.cfg"),
                                    settings)
        self.store_path = settings["store_path"]
        self.inline = _write(os.path.join(directory, "notes.xml"),
                             gen.notes_inline_xml(self.notes))
        self.deps = [_write(os.path.join(directory, note.name + ".deps"),
                            note.dependency_tsv()) for note in self.notes]

    def inputs(self):
        """The generated files; the config only names their paths."""
        return self.files + [self.inline] + self.deps

    def round(self):
        _fresh(self.store_path)
        base = ["--config", self.config]
        outputs = [run_cli(base + ["init"])]
        outputs.append(run_cli(base + [
            "import", "--inline", self.inline, "--record-element", "RECORD",
            "--corpus", "ward"]))
        for note, deps in zip(self.notes, self.deps):
            outputs.append(run_cli(base + [
                "import", "--annotations", deps, "--doc", note.name]))
        outputs.append(run_cli(base + ["run", *[n.name for n in self.notes],
                                       "--stages", self.STAGES]))
        outputs.append(run_cli(base + ["instances", "--corpus", "ward",
                                       "--create-documents"]))
        self.outputs = outputs
        return dict(wall_s=sum(o[2] for o in outputs), docs=len(self.notes))

    def verify(self, checks, fault=False):
        if fault:
            _drop_one_annotation(self.store_path)
        outputs = self.outputs
        run_out = outputs[-2][1]
        for n, (code, _, _) in enumerate(outputs):
            checks.expect(code == 0, f"invocation {n} exited with {code}")
        said = outputs[-1][1].strip()
        checks.expect(said == f"{len(self.notes)} instances created",
                      f"instances said {said!r}")
        counts = _type_counts(self.store_path)
        graph_lines = {}
        for line in run_out.splitlines():
            name, _, rest = line.partition(": ")
            if "graphs persisted" in rest:
                graph_lines[name] = int(rest.split("; ")[1].split()[0])
        for note in self.notes:
            got = counts.get(note.name, {})
            wrong = [(t, note.counts[key], got.get(t, 0))
                     for key, t in self.TYPES
                     if got.get(t, 0) != note.counts[key]]
            checks.expect(not wrong, f"{note.name} counts {wrong}")
            checks.expect(
                graph_lines.get(note.name) == note.counts["sentences"],
                f"{note.name}: {graph_lines.get(note.name)} graphs for"
                f" {note.counts['sentences']} sentences")
        with CdmStore(self.store_path) as store:
            for n in self.sample:
                note = self.notes[n]
                doc = store.unmarshal_document(store.find_document(note.name))
                checks.expect(doc.content == note.text,
                              f"{note.name}: stored text differs")
                checks.expect(_round_trips(doc),
                              f"{note.name}: store round trip differs")


def _round_trips(doc):
    """Copy the document into a fresh in-memory store and read it back."""
    copy = Document(doc.name, doc.content, metadata=doc.metadata)
    for ann in doc.annotations():
        copy.annotate(ann.span, ann.type_name, ann.value, ann.attributes,
                      ann.provenance)
    with CdmStore(":memory:") as store:
        store.init_schema()
        store.marshal_document(copy)
        back = store.unmarshal_document(copy.id)
    return _annotation_rows(back) == _annotation_rows(doc)


def _drop_one_annotation(db_path):
    """Injected wrong output for the self-test: lose one annotation."""
    with contextlib.closing(sqlite3.connect(db_path)) as conn, conn:
        conn.execute("DELETE FROM annotations WHERE id ="
                     " (SELECT MAX(id) FROM annotations)")


class BulkImport:
    """One inline-XML corpus of PHI-tagged records, imported into a
    corpus, then one document instance per record."""

    name = "bulk_import"

    def __init__(self, size):
        self.size = size

    def setup(self, directory, seed):
        size = self.size
        rng = random.Random(seed)
        filler = gen.make_lexicon(rng, 1).filler
        self.records = gen.make_records(rng, filler, size["records"],
                                        size["words"], size["tags"])
        self.store_path = os.path.join(directory, "store.db")
        self.config = _write_config(os.path.join(directory, "annokit.cfg"),
                                    dict(store_path=self.store_path))
        self.inline = _write(os.path.join(directory, "deid.xml"),
                             gen.records_inline_xml(self.records))

    def inputs(self):
        return [self.inline]

    def round(self):
        _fresh(self.store_path)
        base = ["--config", self.config]
        self.outputs = [
            run_cli(base + ["init"]),
            run_cli(base + ["import", "--inline", self.inline,
                            "--corpus", "deid"]),
            run_cli(base + ["instances", "--corpus", "deid",
                            "--create-documents"])]
        return dict(wall_s=sum(o[2] for o in self.outputs),
                    docs=len(self.records))

    def verify(self, checks, fault=False):
        if fault:
            _drop_one_annotation(self.store_path)
        for n, (code, _, _) in enumerate(self.outputs):
            checks.expect(code == 0, f"invocation {n} exited with {code}")
        said = self.outputs[-1][1].strip()
        checks.expect(said == f"{len(self.records)} instances created",
                      f"instances said {said!r}")
        with contextlib.closing(sqlite3.connect(self.store_path)) as conn:
            content = dict(conn.execute("SELECT name, content FROM documents"))
            rows = conn.execute(
                "SELECT d.name, a.start, a.\"end\", t.name, a.value"
                " FROM annotations a JOIN documents d ON a.document_id = d.id"
                " JOIN annotation_types t ON a.type_id = t.id").fetchall()
        tags = {}
        for name, start, end, type_name, value in rows:
            tags.setdefault(name, []).append((type_name, value, start, end))
        for record in self.records:
            checks.expect(content.get(record.record_id) == record.plain
                          and sorted(tags.get(record.record_id, []))
                          == sorted(record.tags),
                          f"{record.record_id}: text or tags differ")


RELATIONS = tuple(AllenRelation)


class Revisit:
    """Read-mostly sessions. Each opens one document, runs one query per
    Allen relation plus annotations_within and next_annotations, exports
    its CUIs and makes one edit followed by a checkpoint."""

    name = "revisit"
    QUERY_TYPES = ("token", "CUI", "sentence", "SP-POS")

    def __init__(self, size):
        self.size = size

    def setup(self, directory, seed):
        size = self.size
        rng = random.Random(seed)
        self.rng = random.Random(seed + 1)
        lexicon = gen.make_lexicon(rng, size["lexicon"])
        loaded = concepts.load_lexicon(
            io.StringIO(lexicon.term_file()), io.StringIO(lexicon.tui_file()),
            io.StringIO(lexicon.pos_file()),
            io.StringIO(lexicon.function_word_file()))
        guideline = sections.parse_guideline(gen.GUIDELINE_XML)
        lengths = gen.note_lengths(size["notes"], size["shortest"],
                                   size["longest"]) + [size["big_tokens"]]
        notes = [gen.make_note(rng, f"doc{n:03d}.txt", lexicon, length,
                               size["sentence_length"])
                 for n, length in enumerate(lengths)]
        self.files = list(_write_lexicon(directory, lexicon).values())
        self.files.append(_write(os.path.join(directory, "notes.txt"),
                                 "".join(note.text for note in notes)))
        self.store_path = os.path.join(directory, "store.db")
        self.sizes = {}
        with CdmStore(":memory:") as store:
            store.init_schema()
            for note in notes:
                doc = _annotate(note, loaded, guideline)
                store.marshal_document(doc)
                self.sizes[note.name] = len(doc.index)
            _save(store, self.store_path)

    def inputs(self):
        return self.files

    @property
    def min_rounds(self):
        """Enough rounds for ``min_sessions`` sessions, so that p90 has
        ten samples beyond it."""
        return math.ceil(self.size["min_sessions"] / len(self.sizes))

    def round(self):
        """One block of sessions: every document once, in seeded order.
        Only the operations are timed; oracle checks run between them
        and edits are read back in ``verify``."""
        names = sorted(self.sizes)
        self.rng.shuffle(names)
        self.ops = {"open": [], "query": [], "export": [], "edit": []}
        self.outcomes = []
        self.edits = []
        for name in names:
            gc.collect()  # each session stands for one annokit process
            with CdmStore(self.store_path) as store:
                self.session(store, name)
        wall = sum(self.ops["open"] + self.ops["export"]
                   + self.ops["edit"]) / 1e3 + sum(self.ops["query"]) / 1e6
        return dict(wall_s=wall, ops=self.ops)

    def session(self, store, name):
        ops, rng, expect = self.ops, self.rng, self._expect
        clock = time.perf_counter
        t0 = clock()
        doc = store.unmarshal_document(store.find_document(name))
        ops["open"].append((clock() - t0) * 1e3)
        expect(len(doc.index) == self.sizes[name],
               f"{name}: opened {len(doc.index)} annotations,"
               f" stored {self.sizes[name]}")
        ordered = sorted(doc.index.by_id.values(),
                         key=lambda a: (a.span.start, a.span.end, a.id))
        anchor = doc.annotation(
            rng.choice(sorted(doc.index.by_type["sentence"]))).span
        token = doc.annotation(rng.choice(sorted(doc.index.by_type["token"])))
        for n, rel in enumerate(RELATIONS):
            type_filter = rng.choice(self.QUERY_TYPES)
            t0 = clock()
            got = doc.annotations_satisfying(rel, anchor, type_filter)
            ops["query"].append((clock() - t0) * 1e6)
            if n % 3 == 0:
                expect(_ids(got) == _oracle(
                    ordered, lambda a: holds(rel, a.span, anchor),
                    type_filter), f"{name}: {rel.value} {anchor}")
        t0 = clock()
        within = doc.annotations_within(anchor, "token")
        ops["query"].append((clock() - t0) * 1e6)
        expect(_ids(within) == _oracle(
            ordered, lambda a: anchor.start <= a.span.start
            and a.span.end <= anchor.end, "token"), f"{name}: within {anchor}")
        t0 = clock()
        following = doc.next_annotations(token, 5)
        ops["query"].append((clock() - t0) * 1e6)
        expect(_ids(following) == [
            i for i in _oracle(ordered, lambda a: a.span.start
                               >= token.span.end, None)
            if i != token.id][:5], f"{name}: next after {token.span}")

        sink = io.StringIO()
        t0 = clock()
        exported = documents.export_annotations(doc, sink, type_filter="CUI")
        ops["export"].append((clock() - t0) * 1e3)
        expect(exported == len(doc.index.by_type.get("CUI", ()))
               == sink.getvalue().count("\n") - 1,
               f"{name}: exported {exported} CUI lines")

        correct = rng.random() < 0.5
        t0 = clock()
        if correct:
            target = doc.annotation(
                rng.choice(sorted(doc.index.by_type["CUI"])))
            doc.update_annotation(target.id, value=target.value + "x")
        else:
            target = doc.annotate(token.span, "note", "reviewed",
                                  {"by": "revisit"}, "benchmark")
        store.checkpoint(doc)
        ops["edit"].append((clock() - t0) * 1e3)
        self.sizes[name] += not correct
        self.edits.append((target.id, (target.span.start, target.span.end,
                                       target.type_name, target.value)))

    def _expect(self, ok, what):
        self.outcomes.append((ok, what))

    def verify(self, checks, fault=False):
        for ok, what in self.outcomes:
            checks.expect(ok, what)
        if fault:
            ann_id, row = self.edits[0]
            self.edits[0] = (ann_id, row[:3] + ("lost edit",))
        with contextlib.closing(sqlite3.connect(self.store_path)) as conn:
            for ann_id, expected in self.edits:
                row = conn.execute(
                    'SELECT a.start, a."end", t.name, a.value'
                    " FROM annotations a JOIN annotation_types t"
                    " ON a.type_id = t.id WHERE a.id = ?",
                    (ann_id,)).fetchone()
                checks.expect(row == expected,
                              f"edit of {ann_id} read back as {row}")


def _ids(anns):
    return [a.id for a in anns]


def _oracle(ordered, keep, type_filter):
    """Linear scan over annotations in canonical order (start, end, then
    id, which is insertion order for a document read from the store)."""
    return [a.id for a in ordered
            if (type_filter is None or a.type_name == type_filter)
            and keep(a)]


def _annotate(note, lexicon, guideline):
    """A fully annotated document, built through the library API the way
    the pipeline stages build it."""
    doc = Document(note.name, note.text)
    for ann in documents.tokenize(doc):
        doc.add_annotation(ann)
    for ann in documents.split_sentences(doc):
        doc.add_annotation(ann)
    sections.detect_sections(doc, guideline)
    sections.match_templates(doc, guideline)
    for sentence in doc.annotations("sentence"):
        concepts.annotate_concepts(doc, sentence, lexicon)
    concepts.annotate_tuis(doc, lexicon)
    concepts.annotate_sp_pos(doc, lexicon)
    return doc


class Mine:
    """``graph-mine`` over dependency-like trees persisted in setup:
    load, mine, and persist the patterns and their embeddings."""

    name = "mine"

    def __init__(self, size):
        self.size = size

    def setup(self, directory, seed):
        size = self.size
        rng = random.Random(seed)
        specs = gen.make_graphs(rng, size["graphs"], size["labels"],
                                     size["edge_labels"])
        self.pristine = os.path.join(directory, "graphs.db")
        self.store_path = os.path.join(directory, "store.db")
        self.config = _write_config(os.path.join(directory, "annokit.cfg"),
                                    dict(store_path=self.store_path))
        self.listing = _write(os.path.join(directory, "graphs.txt"), "".join(
            f"{spec.name}\t{spec.nodes}\t{spec.edges}\n"
            for spec in specs))
        self.graphs = []
        with CdmStore(":memory:") as store:
            store.init_schema()
            for spec in specs:
                graph = graphs.LabeledGraph(
                    nodes=spec.nodes, edges=spec.edges, name=spec.name,
                    graph_type="dependency")
                graphs.persist_graph(store, graph)
                self.graphs.append(graph)
            _save(store, self.pristine)

    def inputs(self):
        return [self.listing]

    def round(self):
        shutil.copyfile(self.pristine, self.store_path)
        self.output = run_cli(["--config", self.config, "graph-mine",
                               "--min-support", str(self.size["support"]),
                               "--max-nodes", "4"])
        return dict(wall_s=self.output[2])

    def verify(self, checks, fault=False):
        """Recount every persisted pattern over all graphs."""
        code, out, _ = self.output
        checks.expect(code == 0, f"graph-mine exited with {code}")
        by_id = {g.id: g for g in self.graphs}
        embeddings = 0
        with CdmStore(self.store_path) as store:
            rows = store.connection.execute(
                "SELECT subgraph_graph_id, support, data FROM sig_subgraph"
                " ORDER BY id").fetchall()
            for graph_id, support, data in rows:
                pattern = graphs.load_graph(store, graph_id)
                members = [int(g) for g in
                           json.loads(data)["graph_ids"].split(",")]
                if fault:
                    members = members[1:]
                found = []
                for gid, host in by_id.items():
                    hits = graphs.find_subgraph_occurrences(host, pattern)
                    if hits:
                        found.append(gid)
                        embeddings += len(hits)
                checks.expect(found == members and support == len(found),
                              f"pattern {graph_id}: support {support},"
                              f" recount {len(found)}")
            stored = store.connection.execute(
                "SELECT COUNT(*) FROM lg_sigsub").fetchone()[0]
        checks.expect(bool(rows), "no pattern mined")
        checks.expect(f"persisted {len(rows)} patterns, {embeddings}"
                      f" embeddings" in out and stored == embeddings,
                      f"embeddings: stored {stored}, recount {embeddings}")


WORKLOADS = {cls.name: cls for cls in (Ingest, BulkImport, Revisit, Mine)}
