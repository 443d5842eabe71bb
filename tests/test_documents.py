import io
import os
import random
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from annokit import documents
from annokit.documents import (
    Annotation,
    Document,
    export_annotations,
    import_external_annotations,
    segment_context,
    split_sentences,
    tokenize,
    tokenize_text,
)
from annokit.errors import (
    BoundsError,
    DuplicateEntryError,
    ImportFormatError,
    NotFoundError,
    OrderError,
    OverlapError,
    ValidationError,
)
from annokit.intervals import AllenRelation, Interval, holds


def make_doc(content="0123456789", name="note"):
    return Document(name=name, content=content)


def test_content_is_immutable():
    doc = make_doc()
    with pytest.raises(AttributeError):
        doc.content = "changed"
    assert doc.content == "0123456789"


def test_add_and_fetch():
    doc = make_doc()
    ann = doc.annotate(Interval(0, 3), "token", "012")
    assert ann.id is not None
    assert doc.annotation(ann.id) is ann
    assert doc.annotations() == [ann]
    got = doc.annotations_satisfying(AllenRelation.EQ, Interval(0, 3))
    assert got == [ann]


def test_an_annotation_keeps_no_instance_dict():
    ann = Annotation(Interval(0, 3), "token", "012")
    assert not hasattr(ann, "__dict__")
    with pytest.raises(AttributeError):
        ann.doc_id = 1


def test_out_of_bounds_span_rejected():
    doc = make_doc()
    with pytest.raises(BoundsError):
        doc.annotate(Interval(5, 20), "token", "x")
    assert doc.annotations() == []


def test_duplicate_id_rejected():
    doc = make_doc()
    doc.add_annotation(Annotation(span=Interval(0, 2), type_name="t", id=7))
    with pytest.raises(DuplicateEntryError):
        doc.add_annotation(Annotation(span=Interval(3, 5), type_name="t", id=7))


def test_empty_type_rejected():
    doc = make_doc()
    with pytest.raises(ValidationError):
        doc.annotate(Interval(0, 2), "")


# The TSV format carries provenance under "_provenance", so an attribute
# of that name would come back as the provenance or be lost.
def test_provenance_key_rejected_on_add():
    doc = make_doc()
    with pytest.raises(ValidationError):
        doc.annotate(Interval(0, 2), "t", attributes={"_provenance": "x"})
    with pytest.raises(ValidationError):
        doc.add_annotation(Annotation(span=Interval(0, 2), type_name="t",
                                      attributes={"_provenance": "x"}))
    assert doc.annotations() == [] and doc.dirty == set()


# A rejected update changes nothing, whichever of its fields is at fault.
@pytest.mark.parametrize("edit, error", [
    (dict(span=Interval(3, 5), attributes={"_provenance": "x"}),
     ValidationError),
    (dict(span=Interval(3, 5), type_name=""), ValidationError),
    (dict(span=Interval(3, 5), value=5), ValidationError),
    (dict(type_name="u", span=Interval(3, 11)), BoundsError),
], ids=["provenance-key", "empty-type", "non-text-value",
        "span-outside-text"])
def test_provenance_key_rejected_on_update(edit, error):
    doc = make_doc()
    ann = doc.annotate(Interval(0, 2), "t", "v", {"k": "v"}, "p")
    doc.annotate(Interval(1, 4), "other")
    doc.dirty.clear()
    entries = [(span, other.id) for span, other in doc.index.tree]
    by_type = {name: set(ids) for name, ids in doc.index.by_type.items()}
    with pytest.raises(error):
        doc.update_annotation(ann.id, **edit)
    assert (ann.span, ann.type_name, ann.value, ann.attributes,
            ann.provenance) == (Interval(0, 2), "t", "v", {"k": "v"}, "p")
    assert doc.index.by_type == by_type
    assert [(span, other.id) for span, other in doc.index.tree] == entries
    doc.index.tree.audit()
    assert doc.dirty == set()


def test_provisional_ids_are_negative_and_distinct():
    doc = make_doc()
    a = doc.annotate(Interval(0, 1), "t")
    b = doc.annotate(Interval(1, 2), "t")
    assert a.id < 0 and b.id < 0 and a.id != b.id
    assert doc.dirty == {a.id, b.id}


def test_index_consistent_with_rebuild_oracle():
    rng = random.Random(314)
    doc = make_doc("x" * 200)
    added = []
    for _ in range(1000):
        s = rng.randrange(0, 200)
        e = rng.randrange(s, 201)
        added.append(doc.annotate(Interval(s, e), rng.choice("abc")))
    assert len(doc.index.by_id) == 1000
    want = sorted(added, key=lambda a: (a.span.start, a.span.end, added.index(a)))
    assert doc.annotations() == want
    by_type = {}
    for ann in added:
        by_type.setdefault(ann.type_name, set()).add(ann.id)
    assert doc.index.by_type == by_type


def test_satisfying_matches_linear_scan():
    rng = random.Random(2718)
    doc = make_doc("y" * 80)
    anns = []
    for n in range(150):
        s = rng.randrange(0, 80)
        e = rng.randrange(s, 81)
        anns.append(doc.annotate(Interval(s, e), rng.choice(("token", "CUI"))))
    ranked = sorted(anns, key=lambda a: (a.span.start, a.span.end,
                                         anns.index(a)))
    for _ in range(20):
        s = rng.randrange(0, 80)
        e = rng.randrange(s, 81)
        b = Interval(s, e)
        for rel in AllenRelation:
            for type_filter in (None, "CUI"):
                want = [a for a in ranked if holds(rel, a.span, b)
                        and (type_filter is None
                             or a.type_name == type_filter)]
                got = doc.annotations_satisfying(rel, b, type_filter)
                assert got == want


def test_type_filter_with_no_matches_is_empty():
    doc = make_doc()
    doc.annotate(Interval(0, 3), "token", "012")
    assert doc.annotations_satisfying(
        AllenRelation.DURING, Interval(0, 10), "CUI") == []


def test_next_annotations_walks_the_token_stream():
    doc = make_doc("aaa bbb ccc")
    t1 = doc.annotate(Interval(0, 3), "token", "aaa")
    t2 = doc.annotate(Interval(4, 7), "token", "bbb")
    t3 = doc.annotate(Interval(8, 11), "token", "ccc")
    assert doc.next_annotations(t1, 2) == [t2, t3]
    assert doc.next_annotations(t3, 2) == []
    assert doc.next_annotations(t1, 1) == [t2]


def test_next_annotations_includes_adjacent_span():
    doc = make_doc("abcdefg")
    t1 = doc.annotate(Interval(0, 3), "token")
    t2 = doc.annotate(Interval(3, 7), "token")
    assert doc.next_annotations(t1, 2) == [t2]


def test_next_annotations_skips_other_types():
    doc = make_doc("aaa bbb ccc")
    t1 = doc.annotate(Interval(0, 3), "token", "aaa")
    doc.annotate(Interval(4, 11), "CUI", "C1")
    doc.annotate(Interval(4, 7), "POS", "NN")
    t2 = doc.annotate(Interval(4, 7), "token", "bbb")
    doc.annotate(Interval(8, 11), "POS", "NN")
    t3 = doc.annotate(Interval(8, 11), "token", "ccc")
    assert doc.next_annotations(t1, 2, "token") == [t2, t3]
    assert doc.next_annotations(t1, 1, "CUI")[0].value == "C1"


def test_next_annotations_prefix_property():
    rng = random.Random(11)
    doc = make_doc("z" * 60)
    anns = [doc.annotate(Interval(s, min(60, s + rng.randrange(0, 9))), "t")
            for s in rng.sample(range(55), 30)]
    anchor = anns[0]
    for k in range(1, 8):
        shorter = doc.next_annotations(anchor, k)
        longer = doc.next_annotations(anchor, k + 1)
        assert longer[:k] == shorter


def test_next_annotations_validates_arguments():
    doc = make_doc()
    t1 = doc.annotate(Interval(0, 3), "token")
    with pytest.raises(ValidationError):
        doc.next_annotations(t1, 0)
    stray = Annotation(span=Interval(0, 3), type_name="token", id=999)
    with pytest.raises(NotFoundError):
        doc.next_annotations(stray, 1)


def test_annotations_within_matches_scan():
    rng = random.Random(47)
    doc = make_doc("w" * 50)
    anns = []
    for _ in range(120):
        s = rng.randrange(0, 50)
        e = rng.randrange(s, 51)
        anns.append(doc.annotate(Interval(s, e), "t"))
    ranked = sorted(anns, key=lambda a: (a.span.start, a.span.end,
                                         anns.index(a)))
    for _ in range(25):
        s = rng.randrange(0, 50)
        e = rng.randrange(s, 51)
        b = Interval(s, e)
        want = [a for a in ranked
                if a.span.start >= b.start and a.span.end <= b.end]
        assert doc.annotations_within(b) == want


def test_update_annotation_reindexes():
    doc = make_doc("q" * 30)
    ann = doc.annotate(Interval(2, 6), "token", "old")
    doc.dirty.clear()
    doc.update_annotation(ann.id, span=Interval(10, 14), value="new",
                          type_name="CUI")
    assert ann.span == Interval(10, 14)
    assert doc.annotations_satisfying(AllenRelation.EQ, Interval(2, 6)) == []
    assert doc.annotations_satisfying(AllenRelation.EQ, Interval(10, 14)) == [ann]
    assert doc.index.by_type == {"CUI": {ann.id}}
    assert doc.dirty == {ann.id}
    with pytest.raises(BoundsError):
        doc.update_annotation(ann.id, span=Interval(25, 40))


def test_segment_context_worked_example():
    doc = make_doc("aspirin reduces pain now", name="s")
    ctx = segment_context(doc, Interval(0, 7), Interval(16, 20),
                          Interval(0, 24))
    assert ctx.preceding == Interval(0, 0)
    assert ctx.concept1 == Interval(0, 7)
    assert ctx.between == Interval(7, 16)
    assert ctx.concept2 == Interval(16, 20)
    assert ctx.succeeding == Interval(20, 24)


def test_segment_context_accepts_annotations():
    doc = make_doc("aspirin reduces pain now", name="s")
    sent = doc.annotate(Interval(0, 24), "sentence")
    c1 = doc.annotate(Interval(0, 7), "CUI", "C1")
    c2 = doc.annotate(Interval(16, 20), "CUI", "C2")
    ctx = segment_context(doc, c1, c2, sent)
    assert ctx.between == Interval(7, 16)


def test_segment_context_errors():
    doc = make_doc("x" * 30)
    sent = Interval(5, 25)
    with pytest.raises(OverlapError):
        segment_context(doc, Interval(6, 13), Interval(11, 15), sent)
    with pytest.raises(OrderError):
        segment_context(doc, Interval(16, 20), Interval(6, 10), sent)
    with pytest.raises(BoundsError):
        segment_context(doc, Interval(2, 8), Interval(10, 14), sent)
    with pytest.raises(BoundsError):
        segment_context(doc, Interval(6, 10), Interval(20, 28), sent)
    with pytest.raises(BoundsError):
        segment_context(doc, Interval(6, 10), Interval(12, 14),
                        Interval(5, 40))


def test_segment_context_partitions_random_configs():
    rng = random.Random(606)
    doc = make_doc("p" * 120)
    for _ in range(200):
        ss = rng.randrange(0, 40)
        se = rng.randrange(ss + 4, 121)
        cuts = sorted(rng.sample(range(ss, se + 1), 4))
        c1 = Interval(cuts[0], cuts[1])
        c2 = Interval(cuts[2], cuts[3])
        ctx = segment_context(doc, c1, c2, Interval(ss, se))
        spans = ctx.spans()
        # contiguous, non-overlapping, covering the sentence exactly
        assert spans[0].start == ss
        assert spans[-1].end == se
        for left, right in zip(spans, spans[1:]):
            assert left.end == right.start


def test_tokenize_worked_example():
    doc = make_doc("A b.")
    toks = tokenize(doc)
    assert [(t.span.start, t.span.end) for t in toks] == [(0, 1), (2, 3), (3, 4)]
    assert [t.value for t in toks] == ["A", "b", "."]
    assert [t.attributes["ordinal"] for t in toks] == ["0", "1", "2"]
    assert all(t.type_name == "token" for t in toks)


def test_tokenize_empty_document():
    assert tokenize(make_doc("")) == []


def test_tokenize_text_handles_punctuation_runs():
    got = tokenize_text("re-do it_now!!")
    assert [t for t, _ in got] == ["re", "-", "do", "it", "_", "now", "!", "!"]


def test_sentences_worked_example():
    doc = make_doc("A b.")
    sents = split_sentences(doc)
    assert [(s.span.start, s.span.end) for s in sents] == [(0, 4)]


def test_sentences_abbreviation_guard():
    doc = make_doc("Dr. Smith came. He left.")
    sents = split_sentences(doc)
    texts = [doc.content[s.span.start:s.span.end] for s in sents]
    assert texts == ["Dr. Smith came.", "He left."]
    # without the guard the abbreviation splits too
    bare = split_sentences(doc, abbreviations=())
    assert len(bare) == 3


def test_sentences_split_at_newlines_and_trim():
    doc = make_doc("first line\n\n  second line  \nthird")
    sents = split_sentences(doc)
    texts = [doc.content[s.span.start:s.span.end] for s in sents]
    assert texts == ["first line", "second line", "third"]


def test_sentences_require_uppercase_after_break():
    doc = make_doc("took 2.5 mg daily. no change")
    assert len(split_sentences(doc)) == 1


def test_tokens_never_cross_sentence_bounds():
    doc = make_doc("One two. Three four! Five?\nSix.")
    toks = tokenize(doc)
    sents = split_sentences(doc)
    for t in toks:
        crossing = [s for s in sents
                    if t.span.start < s.span.end < t.span.end]
        assert not crossing


def test_export_import_round_trip():
    doc = make_doc("the cat sat on the mat", name="mat")
    doc.annotate(Interval(0, 3), "token", "the", {"ordinal": "0"}, "tk")
    doc.annotate(Interval(4, 7), "CUI", "C0007450", {"tui": "T029"}, "lex")
    doc.annotate(Interval(4, 7), "token", "cat", {"ordinal": "1"}, "tk")
    buf = io.StringIO()
    assert export_annotations(doc, buf) == 3
    twin = make_doc("the cat sat on the mat", name="mat")
    buf.seek(0)
    assert import_external_annotations(twin, buf) == 3
    orig = doc.annotations()
    copy = twin.annotations()
    assert len(copy) == len(orig)
    for a, b in zip(orig, copy):
        assert (a.span, a.type_name, a.value, a.attributes, a.provenance) == \
               (b.span, b.type_name, b.value, b.attributes, b.provenance)


def test_import_rejects_bad_lines_wholesale():
    doc = make_doc("short text", name="d")
    data = "\n".join([
        "# header",
        "d\t0\t4\ttoken\tshor\t",
        "d\t6\t3\ttoken\tbad\t",          # end < start
        "d\t0\txx\ttoken\tbad\t",          # non-integer
        "other\t0\t4\ttoken\tbad\t",       # wrong document
        "d\t0\t999\ttoken\tbad\t",         # out of bounds
        "d\t5\t10\ttoken\ttext\tk=v",
    ])
    with pytest.raises(ImportFormatError) as err:
        import_external_annotations(doc, io.StringIO(data))
    assert err.value.line_numbers == (3, 4, 5, 6)
    # nothing applied
    assert doc.annotations() == []


def test_import_skips_lines_the_document_held_before():
    doc = make_doc("short text", name="d")
    doc.annotate(Interval(0, 5), "token", "short", {"k": "v"}, "ext")
    data = ("d\t0\t5\ttoken\tshort\tk=v;_provenance=ext\n"  # held
            "d\t0\t5\ttoken\tshort\tk=v\n"  # other provenance
            + "d\t6\t10\ttoken\ttext\t\n" * 2)  # repeated in the file
    assert import_external_annotations(doc, io.StringIO(data)) == 3
    assert import_external_annotations(doc, io.StringIO(data)) == 0
    assert [(a.span, a.provenance) for a in doc.annotations()] == [
        (Interval(0, 5), "ext"), (Interval(0, 5), ""),
        (Interval(6, 10), ""), (Interval(6, 10), "")]


def test_import_checks_each_line_once(monkeypatch):
    checked = []
    check = documents._check_entry

    def counting(*args):
        checked.append(args)
        check(*args)

    monkeypatch.setattr(documents, "_check_entry", counting)
    doc = make_doc("short text", name="d")
    data = ("# header\n"
            "d\t0\t5\ttoken\tshort\tk=v;_provenance=ext\n"
            + "d\t6\t10\ttoken\ttext\t\n" * 2)
    assert import_external_annotations(doc, io.StringIO(data)) == 3
    assert len(checked) == 3
    assert doc.dirty == set(doc.index.by_id)
    assert [(a.span, a.attributes, a.provenance, a.id < 0)
            for a in doc.annotations()] == [
        (Interval(0, 5), {"k": "v"}, "ext", True),
        (Interval(6, 10), {}, "", True), (Interval(6, 10), {}, "", True)]


def test_import_accepts_comments_and_blanks():
    doc = make_doc("short text", name="d")
    data = "# c\n\nd\t0\t5\ttoken\tshort\tk=v;_provenance=ext\n"
    assert import_external_annotations(doc, io.StringIO(data)) == 1
    ann = doc.annotations()[0]
    assert ann.attributes == {"k": "v"}
    assert ann.provenance == "ext"


# text a UTF-8 file can hold, leaning on the separators and line breaks
_ATTRIBUTE_TEXT = st.text(st.characters(codec="utf-8")
                          | st.sampled_from(";=\\\t\n\r"))


# "_provenance" is the reserved key that carries the provenance field
@given(attributes=st.dictionaries(
           _ATTRIBUTE_TEXT.filter(lambda key: key != "_provenance"),
           _ATTRIBUTE_TEXT),
       provenance=_ATTRIBUTE_TEXT)
@example(attributes={"k": "a;b=c"}, provenance="")
def test_tsv_attributes_round_trip_any_text(attributes, provenance):
    doc = make_doc("abc", name="d")
    doc.annotate(Interval(0, 3), "tag", "v", attributes, provenance)
    back = make_doc("abc", name="d")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "d.ann")
        export_annotations(doc, path)
        assert import_external_annotations(back, path) == 1
    [ann] = back.annotations()
    assert ann.attributes == attributes
    assert ann.provenance == provenance


def test_export_refuses_a_comment_name():
    doc = make_doc("abc", name="#note")
    doc.annotate(Interval(0, 3), "tag", "v")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "note.ann")
        with pytest.raises(ValidationError):
            export_annotations(doc, path)
        assert not os.path.exists(path)


# an integer, None or a list: what the model refuses in place of text
_NOT_TEXT = st.integers() | st.none() | st.lists(st.integers(), max_size=2)


def _mostly(text, other=_NOT_TEXT):
    """Draws from ``text``, and one time in ten from ``other``."""
    return st.integers(0, 9).flatmap(lambda k: text if k else other)


@given(name=_ATTRIBUTE_TEXT, type_name=_mostly(_ATTRIBUTE_TEXT.filter(bool)),
       value=_mostly(_ATTRIBUTE_TEXT),
       attributes=st.dictionaries(
           _mostly(_ATTRIBUTE_TEXT.filter(lambda key: key != "_provenance"),
                   st.integers() | st.none()),
           _mostly(_ATTRIBUTE_TEXT), max_size=3),
       provenance=_mostly(_ATTRIBUTE_TEXT))
@example(name=" #note", type_name="tag", value="v", attributes={},
         provenance="")
@example(name="d", type_name="tag", value="a\rb", attributes={},
         provenance="")
@example(name="d", type_name="tag", value=5, attributes={}, provenance="")
@example(name="d", type_name="tag", value="v", attributes={}, provenance=1)
@example(name="d", type_name=None, value="v", attributes={}, provenance="")
@example(name="d", type_name="tag", value="v", attributes={1: "x"},
         provenance="")
@example(name="d", type_name="tag", value="v", attributes={"k": ["x"]},
         provenance="")
def test_tsv_round_trips_or_export_refuses(name, type_name, value,
                                           attributes, provenance):
    """The model refuses an annotation whose type, value, provenance or
    attribute keys or values are not all text, and adds nothing. Export
    refuses exactly the annotations whose line would not read back, and
    writes nothing then; every other one round-trips."""
    doc = make_doc("abc", name=name)
    texts = (type_name, value, provenance, *attributes, *attributes.values())
    if not all(isinstance(text, str) for text in texts):
        with pytest.raises(ValidationError):
            doc.annotate(Interval(0, 3), type_name, value, attributes,
                         provenance)
        assert doc.annotations() == [] and doc.dirty == set()
        assert export_annotations(doc, io.StringIO()) == 0
        return
    doc.annotate(Interval(0, 3), type_name, value, attributes, provenance)
    refused = (name.lstrip().startswith("#")
               or any(char in text for text in (name, type_name, value)
                      for char in "\t\n\r"))
    back = make_doc("abc", name=name)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "d.ann")
        if refused:
            with pytest.raises(ValidationError):
                export_annotations(doc, path)
            assert not os.path.exists(path)
            return
        export_annotations(doc, path)
        assert import_external_annotations(back, path) == 1
    [ann] = back.annotations()
    assert (ann.span, ann.type_name, ann.value, ann.attributes,
            ann.provenance) == (Interval(0, 3), type_name, value,
                                attributes, provenance)


@pytest.mark.parametrize("attributes", ["k=a\\qb", "k=a\\"])
def test_tsv_unknown_escape_rejected(attributes):
    doc = make_doc("abc", name="d")
    line = f"d\t0\t1\ttag\tv\t{attributes}\n"
    with pytest.raises(ImportFormatError) as info:
        import_external_annotations(doc, io.StringIO(line))
    assert info.value.line_numbers == (1,)
    assert doc.annotations() == []


@pytest.mark.parametrize("attributes", [
    "a=1;a=2",
    "_provenance=x;_provenance=y",
    "a=1;a=2;_provenance=x;_provenance=y",
    "k\r=1;k\\r=2",  # the same key once unescaped
])
def test_tsv_repeated_attribute_key_rejected(attributes):
    doc = make_doc("Hello world", name="n")
    data = ("n\t6\t11\ttoken\tworld\t\n"
            f"n\t0\t5\ttoken\tHello\t{attributes}\n")
    with pytest.raises(ImportFormatError) as info:
        import_external_annotations(doc, io.StringIO(data))
    assert info.value.line_numbers == (2,)
    assert doc.annotations() == []
