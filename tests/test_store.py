import ast
import gc
import importlib.util
import json
import pathlib
import random
import re
import sqlite3
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import annokit

from annokit.documents import Document, export_annotations
from annokit.errors import (
    ConflictError,
    DanglingReferenceError,
    MigrationRequiredError,
    NotFoundError,
    StoreError,
    ValidationError,
)
from annokit.intervals import AllenRelation, Interval
from annokit.sections import detect_sections, parse_guideline
from annokit.store import (
    _OPEN_BLOCK,
    CdmStore,
    _loads,
    canonical_json,
)

ALL_TABLES = {
    "corpora", "corpora_documents", "documents", "annotations",
    "annotation_types", "instances", "instances_content", "instance_sets",
    "instance_set_members", "groundtruth", "graphs", "linkage_graph",
    "sig_subgraph", "lg_sigsub",
}


# What a test opens with ``kept`` is closed when the test ends, as an
# unclosed connection is a ResourceWarning when it is collected.
_kept = []


@pytest.fixture(autouse=True)
def close_kept():
    yield
    while _kept:
        _kept.pop().close()


def kept(opened):
    """``opened``, a store or connection, closed when the test ends."""
    _kept.append(opened)
    return opened


def fresh_store():
    store = kept(CdmStore(":memory:"))
    store.init_schema()
    return store


def test_init_schema_creates_fourteen_tables():
    store = kept(CdmStore(":memory:"))
    created, moved = store.init_schema()
    assert moved is None
    assert set(created) == ALL_TABLES
    assert len(created) == 14


def test_init_schema_idempotent():
    store = fresh_store()
    assert store.init_schema() == ([], None)


def test_incompatible_table_blocks_init():
    conn = kept(sqlite3.connect(":memory:"))
    conn.execute("CREATE TABLE documents (id INTEGER, wrong TEXT)")
    store = CdmStore(conn)
    with pytest.raises(MigrationRequiredError):
        store.init_schema()


def test_unreachable_store():
    with pytest.raises(StoreError):
        CdmStore("/no/such/dir/at/all.db")


def index_names(store):
    return {r[0] for r in store.connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index'")}


def test_init_schema_drops_the_type_value_index_of_an_old_store(tmp_path):
    path = tmp_path / "old.db"
    with CdmStore(path) as store:
        store.init_schema()
        for d in range(3):
            doc = Document(f"d{d}", "w" * 20)
            for s in range(0, 20, 2):
                doc.annotate(Interval(s, s + 1), "CUI", f"C{s % 3}")
            store.marshal_document(doc)
        store.connection.execute(
            "CREATE INDEX idx_annotations_type_value"
            " ON annotations (type_id, value)")
        store.connection.commit()
        rows = store.connection.execute(
            "SELECT * FROM annotations ORDER BY id").fetchall()
    with CdmStore(path) as store:
        assert "idx_annotations_type_value" in index_names(store)
        assert store.init_schema() == ([], None)
        assert "idx_annotations_type_value" not in index_names(store)
        assert "idx_annotations_doc_span" in index_names(store)
        assert store.connection.execute(
            "SELECT * FROM annotations ORDER BY id").fetchall() == rows


def to_layout_before_provenance_column(store):
    """Rewrite ``store`` as the code before the provenance column wrote
    it: each provenance inside ``data`` under "_provenance", encoded with
    the attributes, and no provenance column."""
    conn = store.connection
    rows = conn.execute("SELECT id, data, provenance FROM annotations"
                        " WHERE provenance != ''").fetchall()
    with conn:
        conn.executemany("UPDATE annotations SET data = ? WHERE id = ?", [
            (canonical_json({**json.loads(data), "_provenance": provenance}),
             ann_id) for ann_id, data, provenance in rows])
        conn.execute("ALTER TABLE annotations DROP COLUMN provenance")


def opened_fields(store, doc_id):
    return [(a.id, a.span, a.type_name, a.value, a.attributes, a.provenance)
            for a in store.unmarshal_document(doc_id).annotations()]


_FIELD_TEXT = st.text(max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.dictionaries(_FIELD_TEXT.filter(lambda key: key != "_provenance"),
                    _FIELD_TEXT, max_size=3), _FIELD_TEXT), max_size=6))
@example([({'q"\\': "\n\x01\u2028\U0001f600", "": ""},
           '"\\\x1f\u2028\U0001f600'), ({}, "p"), ({"k": "v"}, ""),
          ({"\x00": "\x00"}, "x\x00y")])
def test_init_migrates_a_store_written_before_the_provenance_column(
        entries):
    store = fresh_store()
    doc = Document("old", "abcdef")
    for n, (attributes, provenance) in enumerate(entries):
        doc.annotate(Interval(n % 3, 3 + n % 3), "token", f"v{n}",
                     attributes, provenance)
    outer = doc.annotate(Interval(0, 6), "section", "a", {}, "sections")
    doc.annotate(Interval(1, 5), "section", "b", {"parent": str(outer.id)},
                 "sections")
    store.marshal_document(doc)
    rows = store.connection.execute(
        "SELECT * FROM annotations ORDER BY id").fetchall()
    fields = opened_fields(store, doc.id)
    to_layout_before_provenance_column(store)
    with pytest.raises(MigrationRequiredError, match="run `annokit init`"):
        store.unmarshal_document(doc.id)
    assert store.init_schema() == ([], sum(
        bool(provenance) for _, provenance in entries) + 2)
    # every migrated row is the row this layout writes, byte for byte
    assert store.connection.execute(
        "SELECT * FROM annotations ORDER BY id").fetchall() == rows
    assert opened_fields(store, doc.id) == fields
    dump = list(store.connection.iterdump())
    assert store.init_schema() == ([], None)
    assert list(store.connection.iterdump()) == dump


# Rows as the old layout opened them: a text provenance moves, decoded
# as the open decoded it; any other row stays, and its "_provenance"
# becomes an attribute, which export and every edit refuse.
@pytest.mark.parametrize("data, migrated", [
    (' {"k": "v", "_provenance": "p"}', ('{"k":"v"}', "p")),
    (b'{"_provenance":"p"}', ("{}", "p")),
    ('{"_provenance":"p","a":NaN}', ('{"a":NaN}', "p")),
    ('{"_provenance":1}', ('{"_provenance":1}', "")),
    ('{"_provenance":null}', ('{"_provenance":null}', "")),
    ('{"_provenance":["x"]}', ('{"_provenance":["x"]}', "")),
    ('{"_provenance":"p"', ('{"_provenance":"p"', "")),
    ('["_provenance"]', ('["_provenance"]', "")),
], ids=["spaced", "bytes", "nan", "int", "null", "list", "malformed",
        "not-a-map"])
def test_migration_of_rows_the_old_layout_could_hold(data, migrated):
    store, doc_id = stored_with_data(data)
    to_layout_before_provenance_column(store)
    assert store.init_schema() == ([], int(bool(migrated[1])))
    assert store.connection.execute(
        "SELECT data, provenance FROM annotations").fetchall() == [migrated]


def test_a_failed_migration_leaves_the_layout_before_it():
    store = fresh_store()
    doc = Document("old", "abc")
    doc.annotate(Interval(0, 3), "token", "abc", {"k": "v"}, "tool")
    store.marshal_document(doc)
    to_layout_before_provenance_column(store)
    conn = store.connection
    conn.execute("CREATE TRIGGER refuse BEFORE UPDATE ON annotations"
                 " BEGIN SELECT RAISE(ABORT, 'refused'); END")
    dump = list(conn.iterdump())
    with pytest.raises(StoreError, match="refused"):
        store.init_schema()
    assert list(conn.iterdump()) == dump
    conn.execute("DROP TRIGGER refuse")
    assert store.init_schema() == ([], 1)
    assert opened_fields(store, doc.id) == [
        (1, Interval(0, 3), "token", "abc", {"k": "v"}, "tool")]


def test_a_foreign_annotations_table_blocks_init_and_stays_as_it_was():
    conn = kept(sqlite3.connect(":memory:"))
    conn.execute("CREATE TABLE annotations (id INTEGER, wrong TEXT)")
    dump = list(conn.iterdump())
    with pytest.raises(MigrationRequiredError):
        CdmStore(conn).init_schema()
    assert list(conn.iterdump()) == dump


def test_find_graph_searches_the_name_index():
    store = fresh_store()
    statements = []
    store.connection.set_trace_callback(statements.append)
    assert store.find_graph("doc:0-19") is None
    store.connection.set_trace_callback(None)
    [query] = statements
    plan = store.connection.execute("EXPLAIN QUERY PLAN " + query).fetchall()
    assert [row[3] for row in plan] == [
        "SEARCH graphs USING COVERING INDEX idx_graphs_name (name=?)"]


def test_canonical_json_is_byte_stable():
    a = canonical_json({"b": "2", "a": "1"})
    b = canonical_json({"a": "1", "b": "2"})
    assert a == b == '{"a":"1","b":"2"}'
    assert canonical_json(None) == "{}"


@settings(max_examples=200, deadline=None)
@given(mapping=st.none() | st.dictionaries(
    st.text(), st.text(st.characters() | st.sampled_from('"\\\x00\u2028'))))
def test_canonical_json_equals_json_dumps(mapping):
    assert canonical_json(mapping) == json.dumps(
        mapping or {}, sort_keys=True, separators=(",", ":"),
        ensure_ascii=False)


def unserialisable():
    return {"b": "text", "a": object()}


def circular():
    mapping = {"a": "text"}
    mapping["self"] = mapping
    return mapping


def assert_raises_as_json_dumps(encode, build):
    with pytest.raises(Exception) as want:
        json.dumps(build(), sort_keys=True, separators=(",", ":"),
                   ensure_ascii=False)
    mapping = build()
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        encode(mapping)
    # the failed encode leaves nothing behind: the mapping, mended,
    # encodes again
    mapping.pop("a" if want.type is TypeError else "self")
    assert encode(mapping) == json.dumps(mapping, sort_keys=True,
                                         separators=(",", ":"))


@pytest.mark.parametrize("build", [unserialisable, circular])
def test_canonical_json_raises_what_json_dumps_raises(build):
    assert_raises_as_json_dumps(canonical_json, build)


def test_canonical_json_without_the_c_encoder(monkeypatch):
    """Where ``json`` has no C encoder, a second copy of the store module
    encodes through ``JSONEncoder.encode``, with the same output and the
    same errors."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    spec = importlib.util.find_spec("annokit.store")
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    assert copy._encode is None
    mapping = {"b": "\u00e9\"\u2028", "a": "1"}
    assert copy.canonical_json(mapping) == canonical_json(mapping)
    assert copy.canonical_json(None) == "{}"
    for build in (unserialisable, circular):
        assert_raises_as_json_dumps(copy.canonical_json, build)


def test_marshal_counts_rows():
    store = fresh_store()
    doc = Document("n1", "hello world")
    doc.annotate(Interval(0, 5), "token", "hello")
    doc.annotate(Interval(6, 11), "token", "world")
    doc.annotate(Interval(0, 11), "sentence")
    counts = store.marshal_document(doc)
    assert counts == {"documents": 1, "annotations": 3}
    # untouched re-marshal writes nothing
    assert store.marshal_document(doc) == {"documents": 0, "annotations": 0}


def test_marshal_writes_a_stored_documents_rename_and_metadata(tmp_path):
    path = tmp_path / "store.db"
    with CdmStore(path) as store:
        store.init_schema()
        doc = Document("old", "hello", metadata={"source": "a.txt"})
        doc.annotate(Interval(0, 5), "token", "hello")
        store.marshal_document(doc)
        doc.name = "new"
        doc.metadata["source"] = "b.txt"
        assert store.marshal_document(doc) == {"documents": 1,
                                               "annotations": 0}
    with CdmStore(path) as reopened:
        assert reopened.find_document("old") is None
        back = reopened.unmarshal_document(reopened.find_document("new"))
    assert (back.id, back.name, back.metadata) == (
        doc.id, "new", {"source": "b.txt"})
    assert [a.value for a in back.annotations()] == ["hello"]


def test_marshal_of_a_document_id_the_store_lacks_writes_nothing():
    store = fresh_store()
    dump = list(store.connection.iterdump())
    doc = Document("ghost", "boo", doc_id=999)
    doc.annotate(Interval(0, 3), "token", "boo")
    with pytest.raises(NotFoundError):
        store.marshal_document(doc)
    assert list(store.connection.iterdump()) == dump
    assert len(doc.dirty) == 1


def test_marshal_rename_onto_a_stored_name_is_a_store_error():
    store = fresh_store()
    first = Document("first", "one")
    second = Document("second", "two")
    store.marshal_document(first)
    store.marshal_document(second)
    dump = list(store.connection.iterdump())
    second.name = "first"
    with pytest.raises(StoreError):
        store.marshal_document(second)
    assert list(store.connection.iterdump()) == dump


def test_marshal_assigns_durable_ids():
    store = fresh_store()
    doc = Document("n2", "abcdef")
    first = doc.annotate(Interval(0, 3), "token", "abc")
    second = doc.annotate(Interval(0, 3), "token", "abc2")
    assert first.id < 0 and second.id < 0
    store.marshal_document(doc)
    assert doc.id is not None and doc.id > 0
    assert first.id > 0 and second.id > 0
    assert doc.dirty == set()
    # index still coherent, tie order intact
    got = doc.annotations_satisfying(AllenRelation.EQ, Interval(0, 3))
    assert got == [first, second]
    assert doc.annotation(first.id) is first


def test_round_trip_preserves_every_field():
    store = fresh_store()
    doc = Document("round", "x" * 300, metadata={"source": "unit", "k": "v"})
    rng = random.Random(8)
    for n in range(50):
        s = rng.randrange(0, 300)
        e = rng.randrange(s, 301)
        doc.annotate(Interval(s, e), rng.choice(("token", "CUI", "TUI")),
                     f"v{n}", {"n": str(n), "TYPE": "Hospital"}, "toolx")
    store.marshal_document(doc)
    twin = store.unmarshal_document(doc.id)
    assert twin.content == doc.content
    assert twin.name == doc.name
    assert twin.metadata == doc.metadata
    assert twin.dirty == set()
    ours, theirs = doc.annotations(), twin.annotations()
    assert len(theirs) == len(ours)
    for a, b in zip(ours, theirs):
        assert (a.id, a.span, a.type_name, a.value, a.attributes,
                a.provenance) == (b.id, b.span, b.type_name, b.value,
                                  b.attributes, b.provenance)
    twin.index.tree.audit()


def test_span_edit_ranks_equal_spans_by_id_live_and_reloaded():
    store = fresh_store()
    doc = Document("ties", "ab")
    a = doc.annotate(Interval(0, 0), "t")
    store.marshal_document(doc)
    b = doc.annotate(Interval(1, 1), "t")
    doc.update_annotation(a.id, span=Interval(1, 1))
    store.checkpoint(doc)
    twin = store.unmarshal_document(doc.id)
    assert [ann.id for ann in doc.annotations()] == [a.id, b.id]
    assert [ann.id for ann in twin.annotations()] == [a.id, b.id]


def test_round_trip_queries_agree_for_all_relations():
    store = fresh_store()
    doc = Document("q", "y" * 120)
    rng = random.Random(9)
    for _ in range(80):
        s = rng.randrange(0, 120)
        e = rng.randrange(s, 121)
        doc.annotate(Interval(s, e), "t", f"{s}:{e}")
    store.marshal_document(doc)
    twin = store.unmarshal_document(doc.id)
    for _ in range(15):
        s = rng.randrange(0, 120)
        e = rng.randrange(s, 121)
        b = Interval(s, e)
        for rel in AllenRelation:
            ours = [(a.span, a.value)
                    for a in doc.annotations_satisfying(rel, b)]
            theirs = [(a.span, a.value)
                      for a in twin.annotations_satisfying(rel, b)]
            assert ours == theirs


def test_unmarshal_missing_and_empty():
    store = fresh_store()
    with pytest.raises(NotFoundError):
        store.unmarshal_document(999)
    doc = Document("empty", "no annotations here")
    store.marshal_document(doc)
    twin = store.unmarshal_document(doc.id)
    assert twin.annotations() == []


def test_attribute_data_round_trips_byte_exactly():
    store = fresh_store()
    doc = Document("bytes", "0123456789")
    doc.annotate(Interval(0, 4), "PHI", "Hospital", {"TYPE": "Hospital"})
    store.marshal_document(doc)
    row = store.connection.execute(
        "SELECT data FROM annotations").fetchone()
    assert row[0] == '{"TYPE":"Hospital"}'
    twin = store.unmarshal_document(doc.id)
    assert twin.annotations()[0].attributes == {"TYPE": "Hospital"}


def test_unmarshal_builds_an_index_that_passes_audit():
    store = fresh_store()
    doc = Document("audit", "alpha beta gamma")
    for start, end in ((0, 5), (6, 10), (11, 16)):
        doc.annotate(Interval(start, end), "token")
        doc.annotate(Interval(start, end), "CUI", f"C{start}")
    doc.annotate(Interval(0, 16), "sentence")
    doc.annotate(Interval(6, 6), "empty")
    doc.annotate(Interval(6, 10), "token")
    store.marshal_document(doc)
    twin = store.unmarshal_document(doc.id)
    assert twin.index.tree.audit() == {"nodes": 5, "entries": 9}
    assert [a.id for a in twin.annotations()] == [
        a.id for a in doc.annotations()]


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever a test leaves behind."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
        else:
            gc.disable()


def stored_two_token_document(store):
    doc = Document("gc", "alpha beta")
    doc.annotate(Interval(0, 5), "token")
    doc.annotate(Interval(6, 10), "token")
    store.marshal_document(doc)
    return doc.id


def test_unmarshal_keeps_gc_enabled_and_promotes_what_it_built(gc_state):
    store = fresh_store()
    doc_id = stored_two_token_document(store)
    gc.enable()
    twin = store.unmarshal_document(doc_id)
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
    # moved to the oldest generation, so no young collection scans it
    ann = twin.annotations()[0]
    assert any(obj is ann for obj in gc.get_objects(generation=2))


def test_unmarshal_keeps_gc_disabled(gc_state):
    store = fresh_store()
    doc_id = stored_two_token_document(store)
    gc.disable()
    store.unmarshal_document(doc_id)
    assert not gc.isenabled()


def test_unmarshal_leaves_a_callers_frozen_objects_frozen(gc_state):
    store = fresh_store()
    doc_id = stored_two_token_document(store)
    gc.enable()
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    store.unmarshal_document(doc_id)
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_unmarshal_restores_gc_when_the_load_fails(gc_state):
    store = fresh_store()
    doc_id = stored_two_token_document(store)
    store.connection.execute("DELETE FROM annotation_types")
    for enabled in (True, False):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.raises(NotFoundError, match="no document"):
            store.unmarshal_document(doc_id + 1)
        assert gc.isenabled() is enabled
        with pytest.raises(NotFoundError, match="unknown annotation type"):
            store.unmarshal_document(doc_id)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0


def test_a_failed_open_releases_its_read(tmp_path):
    """An open that stops on a bad row in mid-document holds no read lock,
    even while the caller still holds the exception and its frames."""
    path = str(tmp_path / "store.db")
    store = CdmStore(path)
    store.init_schema()
    doc = Document("locked", "alpha beta gamma")
    for start, end in ((0, 5), (6, 10), (11, 16)):
        doc.annotate(Interval(start, end), "token")
    store.marshal_document(doc)
    middle = doc.annotations()[1].id
    with store.connection:
        store.connection.execute(
            "UPDATE annotations SET type_id = 999 WHERE id = ?", (middle,))
    with pytest.raises(NotFoundError, match="unknown annotation type") \
            as raised:
        store.unmarshal_document(doc.id)
    other = sqlite3.connect(path, timeout=0)
    try:
        with other:
            other.execute("INSERT INTO corpora (name) VALUES ('written')")
    finally:
        other.close()
    assert raised.value.__traceback__ is not None
    assert store.find_corpus("written") is not None
    store.close()


def test_an_open_shares_equal_texts_but_not_attributes(tmp_path):
    store = fresh_store()
    doc = Document("shared", "alpha beta gamma delta")
    for start, end in ((0, 5), (6, 10), (11, 16), (17, 22)):
        doc.annotate(Interval(start, end), "CUI", "C00001",
                     {"TYPE": "Hospital"}, "toolx")
    doc.annotate(Interval(0, 22), "sentence", "", {}, "")
    store.marshal_document(doc)
    twin = store.unmarshal_document(doc.id)
    # a marshal -> open round trip exports the same bytes
    before, after = tmp_path / "before.tsv", tmp_path / "after.tsv"
    export_annotations(doc, before)
    export_annotations(twin, after)
    assert after.read_bytes() == before.read_bytes()
    first, second, third, fourth = twin.annotations("CUI")
    assert first.value == "C00001" and first.provenance == "toolx"
    assert second.value is first.value
    assert second.provenance is first.provenance
    # attribute dicts stay one per annotation
    assert first.attributes is not second.attributes
    first.attributes["TYPE"] = "Clinic"
    assert second.attributes == {"TYPE": "Hospital"}
    twin.update_annotation(third.id, attributes={"TYPE": "Ward"},
                           value="C2", provenance="tooly")
    assert fourth.attributes == {"TYPE": "Hospital"}
    assert (fourth.value, fourth.provenance) == ("C00001", "toolx")
    assert store.checkpoint(twin) == 1
    again = store.unmarshal_document(doc.id)
    assert [(a.value, a.attributes, a.provenance)
            for a in again.annotations("CUI")] == [
        ("C00001", {"TYPE": "Hospital"}, "toolx"),
        ("C00001", {"TYPE": "Hospital"}, "toolx"),
        ("C2", {"TYPE": "Ward"}, "tooly"),
        ("C00001", {"TYPE": "Hospital"}, "toolx")]
    # provenance that is not text, which annotate refuses, comes back as
    # stored: a BLOB opens as bytes, apart from the equal text; and
    # "_provenance" inside data is an attribute like any other
    odd, odd_id = stored_with_data("{}", "{}",
                                   canonical_json({"_provenance": "x"}))
    with odd.connection:
        odd.connection.executemany(
            "UPDATE annotations SET provenance = ? WHERE id = ?",
            [("toolx", 1), (b"toolx", 2)])
    opened = odd.unmarshal_document(odd_id)
    text, blob, reserved = opened.annotations()
    assert [(type(a.provenance), a.provenance, a.attributes)
            for a in (text, blob, reserved)] == [
        (str, "toolx", {}), (bytes, b"toolx", {}),
        (str, "", {"_provenance": "x"})]
    # export refuses the bytes before it writes anything
    dest = tmp_path / "odd.tsv"
    dest.write_text("kept\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"annotation {blob.id} "):
        export_annotations(opened, dest)
    assert dest.read_text(encoding="utf-8") == "kept\n"
    # such an annotation takes an edit only with a text provenance
    with pytest.raises(ValidationError):
        opened.update_annotation(blob.id, value="v")
    assert (blob.value, blob.provenance, opened.dirty) == ("", b"toolx",
                                                           set())
    opened.update_annotation(blob.id, value="v", provenance="p")
    assert (blob.value, blob.provenance) == ("v", "p")
    # and the attribute, which the TSV format would read back as the
    # provenance, until it goes
    with pytest.raises(ValidationError, match=f"annotation {reserved.id} "):
        export_annotations(opened, dest)
    with pytest.raises(ValidationError):
        opened.update_annotation(reserved.id, value="v")
    opened.update_annotation(reserved.id, attributes={})
    assert export_annotations(opened, dest) == 3


def stored_with_data(*texts):
    """A store of one document whose n-th annotation, all on one span, has
    the n-th of ``texts`` in its data column."""
    store = fresh_store()
    doc = Document("raw", "abc")
    for _ in texts:
        doc.annotate(Interval(0, 3), "token")
    store.marshal_document(doc)
    with store.connection:
        store.connection.executemany(
            "UPDATE annotations SET data = ? WHERE id = ?",
            zip(texts, sorted(doc.index.by_id)))
    return store, doc.id


@pytest.mark.parametrize("data", [
    {"_provenance": 1}, {"_provenance": 0}, {"_provenance": True},
    {"k": 2}], ids=["provenance-1", "provenance-0", "provenance-True",
                    "attribute-2"])
def test_export_refuses_a_stored_field_that_is_not_text(data, tmp_path):
    # The first annotation is plain text; the second brings ``data`` in.
    store, doc_id = stored_with_data("{}", canonical_json(data))
    doc = store.unmarshal_document(doc_id)
    dest = tmp_path / "out.ann"
    dest.write_text("kept\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        export_annotations(doc, str(dest))
    assert dest.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("text", [
    ' {"a":"b"}', '\n\t{"a":"b"}', '{"a":"b"} ', '{"a":"b"}\n',
    ' { "a" : "b" } ', b'{"a":"b"}'])
def test_data_with_whitespace_around_or_as_bytes_loads(text):
    store, doc_id = stored_with_data(text)
    twin = store.unmarshal_document(doc_id)
    assert twin.annotations()[0].attributes == {"a": "b"}


@pytest.mark.parametrize("text", [
    '{"a":"b"}x', '{"a":"b"} {}', '{}}', '{"a":"b"},', '\ufeff{}', ''])
def test_data_with_trailing_characters_or_no_value_raises_as_json_loads(
        text):
    store, doc_id = stored_with_data(text)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as raised:
        store.unmarshal_document(doc_id)
    assert str(raised.value) == str(expected.value)


# Texts where a joined parse of a block could go wrong: sqlite's
# ``json_valid`` and Python's parser disagree on some, and a block that
# holds one must decode as if each text were decoded alone.
_DATA_TEXTS = [
    "{}", '{"a":"b"}', ' {"a":"b"} ', '\n{"k":"v"}\t', '{"a":"1","a":"2"}',
    '{"\\ud800":"\\udfff"}', '"\\ud834"', "NaN", '{"a":NaN}', "1e400",
    '{"a":-1e400}', '{"a":"b"}x', "[1", "2]", "3,4", "{},{}", "{}\x00junk",
    '{"a\x00":"b"}', "{a:1}", "[1,]", "'x'", "", " ", "\ufeff{}", "[]",
    "null", '{"a":[1,{"b":null}]}', "[" * 10 + "]" * 10,
]


def _data_texts():
    attributes = st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                                 max_size=3)
    return st.one_of(
        st.sampled_from(_DATA_TEXTS),
        st.sampled_from(_DATA_TEXTS).map(str.encode),
        st.just('{"\ud800":"x"}'.encode("utf-8", "surrogatepass")),
        attributes.map(canonical_json),
        attributes.map(json.dumps),
        attributes.map(lambda a: canonical_json(a).encode()))


def stored_rows(texts):
    """A store of one document whose annotations, inserted with plain
    SQL, all on one span, have ``texts`` as their data, in id order."""
    store = fresh_store()
    conn = store.connection
    with conn:
        doc_id = conn.execute("INSERT INTO documents (name, size, content)"
                              " VALUES ('raw', 3, 'abc')").lastrowid
        type_id = conn.execute("INSERT INTO annotation_types (name)"
                               " VALUES ('token')").lastrowid
        conn.executemany(
            'INSERT INTO annotations (document_id, start, "end", type_id,'
            " data) VALUES (?, 0, 3, ?, ?)",
            ((doc_id, type_id, text) for text in texts))
    return store, doc_id


@settings(max_examples=150, deadline=None)
@given(head=st.sampled_from([0, _OPEN_BLOCK - 2, _OPEN_BLOCK,
                             2 * _OPEN_BLOCK - 1]),
       texts=st.lists(_data_texts(), min_size=1, max_size=6))
@example(head=0, texts=["[1", "2]", "3,4"])
@example(head=_OPEN_BLOCK - 1, texts=["{}", "{},{}"])
@example(head=0, texts=["{}\x00junk"])
def test_open_decodes_each_data_text_as_alone(head, texts):
    """Rows are opened in blocks; each annotation's attributes, or the
    first failure, are what decoding the rows one by one gives."""
    texts = ['{"ordinal":"1"}'] * head + texts
    expected, failure = [], None
    for text in texts:
        try:
            expected.append(_loads(text))
        except (ValueError, TypeError) as exc:
            failure = exc
            break
    store, doc_id = stored_rows(texts)
    with store:
        if failure is not None:
            with pytest.raises(type(failure)) as raised:
                store.unmarshal_document(doc_id)
            assert type(raised.value) is type(failure)
            assert str(raised.value) == str(failure)
        else:
            opened = sorted(store.unmarshal_document(doc_id).annotations(),
                            key=lambda a: a.id)
            # repr, since NaN is not equal to itself
            assert [repr(a.attributes) for a in opened] == [
                repr(value) for value in expected]


def test_one_block_shares_its_attribute_keys():
    store = fresh_store()
    doc = Document("keys", "ab")
    doc.annotate(Interval(0, 1), "token", attributes={"ordinal": "1"})
    doc.annotate(Interval(1, 2), "token", attributes={"ordinal": "2"})
    store.marshal_document(doc)
    first, second = store.unmarshal_document(doc.id).annotations()
    [key1], [key2] = first.attributes, second.attributes
    assert key1 == key2 == "ordinal" and key1 is key2


def test_checkpoint_writes_exactly_the_dirty_set():
    store = fresh_store()
    doc = Document("chk", "z" * 200)
    anns = [doc.annotate(Interval(n, n + 2), "token", f"t{n}")
            for n in range(100)]
    store.marshal_document(doc)
    assert store.checkpoint(doc) == 0
    for ann in anns[:5]:
        doc.update_annotation(ann.id, value=ann.value + "!")
    assert store.checkpoint(doc) == 5
    assert doc.dirty == set()
    twin = store.unmarshal_document(doc.id)
    changed = [a for a in twin.annotations() if a.value.endswith("!")]
    assert len(changed) == 5


def test_checkpoint_of_a_clean_document_runs_no_statement():
    store = fresh_store()
    doc = Document("clean", "abc def")
    doc.annotate(Interval(0, 3), "token", "abc")
    store.marshal_document(doc)
    twin = store.unmarshal_document(doc.id)
    statements = []
    store.connection.set_trace_callback(statements.append)
    assert store.checkpoint(doc) == 0
    assert store.checkpoint(twin) == 0
    store.connection.set_trace_callback(None)
    assert statements == []


def test_checkpoint_requires_prior_marshal():
    store = fresh_store()
    doc = Document("late", "abc")
    with pytest.raises(StoreError):
        store.checkpoint(doc)


def test_checkpoint_conflict_rolls_back_and_keeps_dirty():
    store = fresh_store()
    doc = Document("cfl", "q" * 50)
    early = doc.annotate(Interval(0, 2), "token", "old-a")
    late = doc.annotate(Interval(10, 12), "token", "old-b")
    store.marshal_document(doc)
    # someone else removes the later row behind our back
    with store.connection:
        store.connection.execute(
            "DELETE FROM annotations WHERE id = ?", (late.id,))
    doc.update_annotation(early.id, value="new-a")
    doc.update_annotation(late.id, value="new-b")
    with pytest.raises(ConflictError):
        store.checkpoint(doc)
    assert doc.dirty == {early.id, late.id}
    row = store.connection.execute(
        "SELECT value FROM annotations WHERE id = ?", (early.id,)
    ).fetchone()
    assert row == ("old-a",)


class CountingConnection:
    """A connection that counts its execute and executemany calls."""

    def __init__(self, conn):
        self._conn = conn
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)

    def execute(self, *args):
        self.calls += 1
        return self._conn.execute(*args)

    def executemany(self, *args):
        self.calls += 1
        return self._conn.executemany(*args)


def checkpoint_calls(fresh):
    """execute and executemany calls of one checkpoint of ``fresh`` new
    annotations of an existing type."""
    conn = CountingConnection(kept(sqlite3.connect(":memory:")))
    store = CdmStore(conn)
    store.init_schema()
    doc = Document("calls", "w" * 100)
    doc.annotate(Interval(0, 1), "token")
    store.marshal_document(doc)
    for k in range(fresh):
        doc.annotate(Interval(k % 100, k % 100), "token", str(k))
    conn.calls = 0
    assert store.checkpoint(doc) == fresh
    calls = conn.calls
    assert len(store.unmarshal_document(doc.id).annotations()) == fresh + 1
    return calls


def test_checkpoint_calls_do_not_grow_with_its_rows():
    # set_trace_callback cannot show this: it sees each executemany row
    assert checkpoint_calls(2000) == checkpoint_calls(10)


def stored_documents(store):
    return store.connection.execute("SELECT id FROM documents").fetchall()


def corpus_documents(store, corpus_id):
    return [r[0] for r in store.connection.execute(
        "SELECT document_id FROM corpora_documents WHERE corpus_id = ?"
        " ORDER BY document_id", (corpus_id,))]


def test_corpus_membership():
    store = fresh_store()
    corpus = store.create_corpus("notes", "test corpus")
    d1 = Document("m1", "aa")
    d2 = Document("m2", "bb")
    assert store.import_documents([d1, d2], corpus) == [True, True]
    # filing a stored document again is a no-op
    assert store.import_documents([Document("m1", "aa")], corpus) == [False]
    assert corpus_documents(store, corpus) == [d1.id, d2.id]
    # a stored document is filed in another corpus as it stands
    other = store.create_corpus("other")
    assert store.import_documents([Document("m2", "new")], other) == [False]
    assert corpus_documents(store, other) == [d2.id]
    assert store.unmarshal_document(d2.id).content == "bb"
    with pytest.raises(ValidationError):
        store.create_corpus("notes")
    with pytest.raises(DanglingReferenceError):
        store.import_documents([Document("m3", "cc")], 999)
    assert store.find_document("m3") is None


def test_import_stores_the_first_copy_of_a_repeated_name():
    store = fresh_store()
    first, second = Document("twin", "first"), Document("twin", "second")
    first.annotate(Interval(0, 5), "token", "first")
    second.annotate(Interval(0, 6), "token", "second")
    assert store.import_documents([first, second]) == [True, False]
    assert second.id is None and second.dirty
    twin = store.unmarshal_document(store.find_document("twin"))
    assert (twin.id, twin.content) == (first.id, "first")
    assert [a.value for a in twin.annotations()] == ["first"]
    assert not first.dirty


def test_import_is_all_or_nothing():
    store = fresh_store()
    corpus = store.create_corpus("c")
    docs = [Document(f"d{n}", "text") for n in range(3)]
    docs[2].annotate(Interval(0, 4), "token", "text")
    refuse_annotation_inserts(store)
    with pytest.raises(StoreError, match="refused"):
        store.import_documents(docs, corpus)
    assert stored_documents(store) == [] == corpus_documents(store, corpus)
    assert [doc.id for doc in docs] == [None, None, None]
    allow_annotation_inserts(store)
    assert store.import_documents(docs, corpus) == [True, True, True]
    assert corpus_documents(store, corpus) == [doc.id for doc in docs]


def test_instance_kind_rules():
    store = fresh_store()
    corpus = store.create_corpus("c")
    doc = Document("i1", "some text")
    a1 = doc.annotate(Interval(0, 4), "CUI", "C1")
    a2 = doc.annotate(Interval(5, 9), "CUI", "C2")
    store.marshal_document(doc)
    pair = store.create_instance(corpus, "annotation_pair", [a1.id, a2.id])
    assert pair > 0
    single = store.create_instance(corpus, "document", [doc.id])
    assert single > 0
    many = store.create_instance(corpus, "document_set", [doc.id])
    assert many > 0
    with pytest.raises(ValidationError):
        store.create_instance(corpus, "annotation_pair",
                              [a1.id, a2.id, a1.id])
    with pytest.raises(ValidationError):
        store.create_instance(corpus, "document", [doc.id, doc.id])
    with pytest.raises(ValidationError):
        store.create_instance(corpus, "document_set", [])
    with pytest.raises(ValidationError):
        store.create_instance(corpus, "mystery", [doc.id])
    with pytest.raises(DanglingReferenceError):
        store.create_instance(corpus, "annotation_pair", [a1.id, 424242])
    with pytest.raises(DanglingReferenceError):
        store.create_instance(777, "document", [doc.id])


def test_create_document_instances_skips_documents_that_have_one():
    store = fresh_store()
    corpus = store.create_corpus("c")
    other = store.create_corpus("other")
    docs = [Document(f"d{n}", "text") for n in range(3)]
    store.import_documents(docs, corpus)
    store.import_documents(docs[:1], other)
    store.create_instance(corpus, "document_set", [docs[0].id])
    store.create_instance(corpus, "document", [docs[1].id])
    store.create_instance(other, "document", [docs[2].id])
    assert store.create_document_instances(corpus) == 2
    assert store.create_document_instances(corpus) == 0
    assert store.create_document_instances(other) == 1
    kinds = [kind for _, kind in store.corpus_instances(corpus)]
    assert kinds == ["document_set", "document", "document", "document"]
    assert store.connection.execute(
        "SELECT c.content_id FROM instances i JOIN instances_content c"
        " ON c.instance_id = i.id WHERE i.corpus_id = ?"
        " AND i.kind = 'document' ORDER BY c.content_id",
        (corpus,)).fetchall() == [(d.id,) for d in docs]
    with pytest.raises(DanglingReferenceError):
        store.create_document_instances(999)


def test_instance_sets_and_membership():
    store = fresh_store()
    corpus = store.create_corpus("c")
    doc = Document("s1", "text here")
    store.marshal_document(doc)
    instances = [store.create_instance(corpus, "document", [doc.id])
                 for _ in range(10)]
    set_id = store.create_instance_set(corpus, "fold0", "train", instances)
    assert store.instance_set_members(set_id) == sorted(instances)
    with pytest.raises(DanglingReferenceError):
        store.create_instance_set(corpus, "fold1", "test", [999999])


def test_groundtruth_upserts():
    store = fresh_store()
    corpus = store.create_corpus("c")
    doc = Document("g1", "text")
    store.marshal_document(doc)
    inst = store.create_instance(corpus, "document", [doc.id])
    store.set_groundtruth(inst, "polarity", "positive")
    store.set_groundtruth(inst, "polarity", "negative")
    store.set_groundtruth(inst, "relation", "treats")
    assert store.groundtruth_for(inst) == [
        ("polarity", "negative"), ("relation", "treats")]
    count = store.connection.execute(
        "SELECT COUNT(*) FROM groundtruth WHERE instance_id = ?"
        " AND task = 'polarity'", (inst,)).fetchone()[0]
    assert count == 1
    with pytest.raises(DanglingReferenceError):
        store.set_groundtruth(31337, "task", "label")


@pytest.mark.parametrize("method, args", [
    ("find_document", ("x",)),
    ("find_graph", ("x",)),
    ("unmarshal_document", (1,)),
    ("graphs_of_type", ("dependency",)),
    ("find_corpus", ("x",)),
    ("marshal_document", (Document("x", ""),)),
    ("corpus_instances", (1,)),
    ("import_documents", ([Document("x", "")], 1)),
    ("create_instance", (1, "document", [1])),
    ("instance_set_members", (1,)),
    ("set_groundtruth", (1, "task", "label")),
    ("groundtruth_for", (1,)),
    ("create_corpus", ("x",)),
    ("graph_links", (1,)),
    ("create_document_instances", (1,)),
])
def test_store_without_schema_raises_store_error(method, args):
    with CdmStore(":memory:") as store:
        with pytest.raises(StoreError, match="no such table"):
            getattr(store, method)(*args)


def test_store_used_from_another_thread_raises_store_error():
    store = fresh_store()
    raised = []

    def use():
        try:
            store.find_document("x")
        except StoreError as exc:
            raised.append(exc)

    worker = threading.Thread(target=use)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert len(raised) == 1
    store.close()


def refuse_annotation_inserts(store):
    with store.connection:
        store.connection.execute(
            "CREATE TRIGGER refuse BEFORE INSERT ON annotations"
            " BEGIN SELECT RAISE(ABORT, 'refused'); END")


def allow_annotation_inserts(store):
    with store.connection:
        store.connection.execute("DROP TRIGGER refuse")


def test_marshal_retry_after_rollback_succeeds():
    store = fresh_store()
    doc = Document("retry", "alpha beta")
    doc.annotate(Interval(0, 5), "token", "alpha")
    refuse_annotation_inserts(store)
    with pytest.raises(StoreError, match="refused"):
        store.marshal_document(doc)
    assert doc.id is None
    assert stored_documents(store) == []
    allow_annotation_inserts(store)
    assert store.marshal_document(doc) == {"documents": 1, "annotations": 1}
    back = store.unmarshal_document(doc.id)
    assert [(a.span, a.value) for a in back.annotations()] == [
        (Interval(0, 5), "alpha")]


NESTED = parse_guideline(
    '<guideline name="n"><section name="results">'
    '<pattern regex="^RESULTS:"/>'
    '<section name="labs"><pattern regex="^LABS:"/></section>'
    '</section></guideline>')


def test_a_stored_section_names_its_parent_by_durable_id():
    store = fresh_store()
    doc = Document("nested", "RESULTS:\ngeneral findings\nLABS:\nwbc 5\n")
    doc.annotate(Interval(0, 8), "token", "RESULTS")
    parent, child = detect_sections(doc, NESTED)
    provisional = str(parent.id)
    # only a section's parent is a reference; another type's is text
    other = doc.annotate(Interval(0, 8), "PHI", "", {"parent": provisional})
    refuse_annotation_inserts(store)
    with pytest.raises(StoreError, match="refused"):
        store.marshal_document(doc)
    assert child.attributes["parent"] == provisional
    allow_annotation_inserts(store)
    store.marshal_document(doc)
    assert child.attributes["parent"] == str(parent.id) != provisional
    assert other.attributes == {"parent": provisional}
    opened = store.unmarshal_document(doc.id)
    parent, child = opened.annotations("section")
    assert child.attributes == {"heading_start": "26", "heading_end": "31",
                                "depth": "1", "parent": str(parent.id)}
    assert opened.annotations("PHI")[0].attributes == {"parent": provisional}


@settings(max_examples=200, deadline=None)
@given(text=st.text() | st.integers(-9, 9).map(str) | st.sampled_from(
    ("+3", "-03", " -3", "-3 ", "\u0663", "-\u0663", "-\u00b3", "-3_0")))
@example(text="-3")
@example(text="٣")
@example(text="-³")
@example(text="-6")
def test_a_parent_text_is_rewritten_only_when_it_is_a_provisional_id(text):
    """The stored parent is the durable id of provisional id ``old`` of
    this flush when ``text == str(old)``, and ``text`` itself otherwise,
    whether the section itself is new or stored before. The new section
    is one of the flush: "-7" names it."""
    store = fresh_store()
    doc = Document("parents", "w" * 10)
    stored = doc.annotate(Interval(0, 10), "section", "", {"parent": "x"})
    store.marshal_document(doc)
    fresh = [doc.annotate(Interval(k, 9), "section") for k in range(5)]
    child = doc.annotate(Interval(5, 5), "section", "", {"parent": text})
    fresh.append(child)
    provisional = [ann.id for ann in fresh]
    assert provisional == [-2, -3, -4, -5, -6, -7]
    doc.update_annotation(stored.id, attributes={"parent": text})
    store.checkpoint(doc)
    durable = {str(old): str(ann.id) for old, ann in zip(provisional, fresh)}
    want = durable.get(text, text)
    for ann in (child, stored):
        data, = store.connection.execute(
            "SELECT data FROM annotations WHERE id = ?", (ann.id,)
        ).fetchone()
        assert json.loads(data) == {"parent": want}
        assert ann.attributes == {"parent": want}


def test_type_ids_of_a_rolled_back_checkpoint_are_forgotten(tmp_path):
    path = tmp_path / "store.db"
    with CdmStore(path) as store:
        store.init_schema()
        doc = Document("types", "alpha beta")
        doc.annotate(Interval(0, 5), "token", "alpha")
        store.marshal_document(doc)
        doc.annotate(Interval(6, 10), "concept", "beta")
        refuse_annotation_inserts(store)
        with pytest.raises(StoreError, match="refused"):
            store.checkpoint(doc)
        allow_annotation_inserts(store)
        assert store.checkpoint(doc) == 1
    with CdmStore(path) as reopened:
        back = reopened.unmarshal_document(doc.id)
    assert [(a.type_name, a.value) for a in back.annotations()] == [
        ("token", "alpha"), ("concept", "beta")]


def test_only_the_store_module_runs_sql():
    """Every SQL statement goes through CdmStore: no other module under
    annokit imports sqlite3 or calls execute/executemany."""
    offences = []
    for path in sorted(pathlib.Path(annokit.__file__).parent.glob("*.py")):
        if path.name == "store.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "sqlite3" for m in modules):
                offences.append(f"{path.name}:{node.lineno} imports sqlite3")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("execute", "executemany")):
                offences.append(f"{path.name}:{node.lineno} calls "
                                f".{node.func.attr}(")
    assert offences == []


MACHINE_TEXT = "alpha beta"
# Few distinct spans, so that equal spans are common.
MACHINE_SPANS = st.builds(lambda s, n: Interval(s, s + n),
                          st.integers(0, 6), st.integers(0, 2))
# Two-letter names over a small alphabet: new types keep turning up.
MACHINE_TYPES = st.text("abc", min_size=1, max_size=2)
MACHINE_VALUES = st.text(st.characters(codec="utf-8"), max_size=3)


def fields(ann):
    return (ann.span, ann.type_name, ann.value, ann.attributes,
            ann.provenance)


def rows(annotations):
    return [(ann.id,) + fields(ann) for ann in annotations]


class DocumentStoreMachine(RuleBasedStateMachine):
    """Drives a Document and its store file through edits, writes,
    aborted writes and reopens, against a plain list of annotations in
    creation order. Equal spans rank durable ids in id order, then
    provisional ones in creation order."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.store = CdmStore(path)
        self.store.init_schema()
        self.doc = Document("machine", MACHINE_TEXT)
        self.oracle = []  # [annotation, span, type, value, attrs, prov]
        self.committed = None  # rows after the last good write

    def teardown(self):
        self.store.close()
        self.path.unlink()

    def pick(self, k):
        return self.oracle[k % len(self.oracle)]

    @rule(span=MACHINE_SPANS, type_name=MACHINE_TYPES,
          value=MACHINE_VALUES,
          attributes=st.dictionaries(st.sampled_from("xy"), MACHINE_VALUES,
                                     max_size=2),
          provenance=st.sampled_from(("", "tool")))
    def add(self, span, type_name, value, attributes, provenance):
        ann = self.doc.annotate(span, type_name, value, attributes,
                                provenance)
        self.oracle.append([ann, span, type_name, value, dict(attributes),
                            provenance])

    @precondition(lambda self: self.oracle)
    @rule(k=st.integers(0, 99), span=MACHINE_SPANS)
    def update_span(self, k, span):
        entry = self.pick(k)
        self.doc.update_annotation(entry[0].id, span=span)
        entry[1] = span

    @precondition(lambda self: self.oracle)
    @rule(k=st.integers(0, 99), type_name=MACHINE_TYPES)
    def update_type(self, k, type_name):
        entry = self.pick(k)
        self.doc.update_annotation(entry[0].id, type_name=type_name)
        entry[2] = type_name

    @precondition(lambda self: self.oracle)
    @rule(k=st.integers(0, 99), value=MACHINE_VALUES)
    def update_value(self, k, value):
        entry = self.pick(k)
        self.doc.update_annotation(entry[0].id, value=value)
        entry[3] = value

    def check_store(self):
        """A fresh store reads back exactly the last good write."""
        with CdmStore(self.path) as fresh:
            twin = fresh.unmarshal_document(self.doc.id)
        assert twin.dirty == set()
        assert rows(twin.annotations()) == self.committed

    def written(self):
        assert self.doc.dirty == set()
        self.committed = rows(self.doc.annotations())
        self.check_store()

    @rule()
    def marshal(self):
        self.store.marshal_document(self.doc)
        self.written()

    @precondition(lambda self: self.doc.id is not None)
    @rule()
    def checkpoint(self):
        self.store.checkpoint(self.doc)
        self.written()

    @precondition(lambda self: self.doc.id is not None)
    @rule(spans=st.lists(MACHINE_SPANS, min_size=50, max_size=60),
          sections=st.sets(st.integers(0, 49), min_size=2, max_size=10))
    def checkpoint_a_batch(self, spans, sections):
        """Fifty or more new annotations in one checkpoint. Those at
        ``sections`` are sections, each nested in the one before it."""
        batch, parent = [], None
        for k, span in enumerate(spans):
            if k in sections:
                attributes = {} if parent is None else {
                    "parent": str(parent.id)}
                ann = self.doc.annotate(span, "section", "", attributes)
                batch.append((ann, parent))
                parent = ann
            else:
                ann = self.doc.annotate(span, "token", str(k))
                batch.append((ann, None))
            self.oracle.append([ann, span, ann.type_name, ann.value,
                                dict(ann.attributes), ""])
        self.store.checkpoint(self.doc)
        for (_, parent), entry in zip(batch, self.oracle[-len(batch):]):
            if parent is not None:
                assert parent.id > 0
                entry[4] = {"parent": str(parent.id)}
        self.written()

    @precondition(lambda self: self.doc.id is not None and self.doc.dirty)
    @rule()
    def aborted_checkpoint(self):
        before = rows(self.doc.annotations())
        dirty = set(self.doc.dirty)
        with self.store.connection:
            for event in ("INSERT", "UPDATE"):
                self.store.connection.execute(
                    f"CREATE TRIGGER refuse_{event} BEFORE {event}"
                    " ON annotations BEGIN SELECT RAISE(ABORT, 'refused');"
                    " END")
        with pytest.raises(StoreError, match="refused"):
            self.store.checkpoint(self.doc)
        with self.store.connection:
            for event in ("INSERT", "UPDATE"):
                self.store.connection.execute(f"DROP TRIGGER refuse_{event}")
        assert self.doc.dirty == dirty
        assert rows(self.doc.annotations()) == before
        self.check_store()

    @rule()
    def reopen(self):
        self.store.close()
        self.store = CdmStore(self.path)
        if self.committed is not None:
            self.check_store()

    @invariant()
    def annotations_match_the_oracle(self):
        created = {id(entry[0]): n for n, entry in enumerate(self.oracle)}

        def rank(entry):
            ann, span = entry[0], entry[1]
            tie = ann.id if ann.id > 0 else created[id(ann)]
            return (span.start, span.end, ann.id < 0, tie)

        expected = sorted(self.oracle, key=rank)
        self.doc.index.tree.audit()
        live = self.doc.annotations()
        assert len(live) == len(expected)
        for ann, entry in zip(live, expected):
            assert ann is entry[0]
            assert fields(ann) == tuple(entry[1:])


def test_document_and_store_agree_with_a_list_oracle(tmp_path):
    run_state_machine_as_test(
        lambda: DocumentStoreMachine(tmp_path / "store.db"),
        settings=settings(max_examples=50, stateful_step_count=30,
                          deadline=None))
